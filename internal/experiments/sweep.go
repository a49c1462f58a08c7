package experiments

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"st2gpu/internal/kernels"
	"st2gpu/internal/metrics"
	"st2gpu/internal/obs"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
	"st2gpu/internal/trace"
)

// This file is the decode-once, evaluate-many sweep engine: a recording
// Set is decoded a single time into trace.Decoded flat arrays, and the
// (kernel × design-batch) grid of every predictor-only analysis is
// scheduled over a bounded worker pool. Each grid cell walks its kernel's
// arrays ONCE scoring a contiguous batch of designs (the design-batched
// kernel in trace amortizes the operand loads, true-carry masks and Peek
// computation across the batch), and writes its results into a
// task-indexed slot; the fold into rows happens afterwards in fixed
// suite × design order — the same per-worker-shard + fold-in-fixed-order
// rule the parallel simulator uses. The batch partition varies with the
// worker count, but each design's counters never depend on which batch
// it landed in (per-design predictor state is independent), so rows are
// bit-identical at any SweepWorkers count.

// runGrid runs n independent tasks over a fixed pool of `workers`
// goroutines (workers ≤ 0 means GOMAXPROCS) claiming task indices from
// a shared atomic counter — the same claim scheme as the simulator's SM
// pool, which gives each task a real worker id for the observability
// layer. fn receives (worker, task) and must write its result into
// caller-owned, task-indexed storage; runGrid itself shares nothing
// between tasks, which is what makes the schedule irrelevant to the
// outcome.
func runGrid(workers, n int, fn func(worker, t int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for t := 0; t < n; t++ {
			if err := fn(0, t); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				errs[t] = fn(w, t)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cellMeter is the sweep grids' observability tap: per-cell spans under
// one grid root span (cfg.Obs) and per-cell duration/throughput plus
// worker-occupancy histograms (cfg.Metrics). Everything it records is
// derived from wall-clock and scheduling, so none of it may — and none
// of it does — flow back into sweep results; a nil meter (observability
// disabled) makes every method a no-op.
type cellMeter struct {
	tr    *obs.Tracer // clock source; also the span sink when spans is set
	spans bool
	root  *obs.ActiveSpan
	busy  atomic.Int64

	cells    *metrics.Counter
	evalOps  *metrics.Counter
	durHist  *metrics.Histogram // log2(cell µs), open-ended at 2^40
	rateHist *metrics.Histogram // log2(cell eval-ops/s)
	occHist  *metrics.Histogram // busy workers sampled at cell start
}

// newCellMeter opens the grid's root span and registers the sweep
// metrics. Returns nil when both sinks are disabled.
func (c Config) newCellMeter(grid string, cells int) *cellMeter {
	if c.Metrics == nil && c.Obs == nil {
		return nil
	}
	m := &cellMeter{tr: c.Obs, spans: c.Obs.Enabled()}
	if m.tr == nil {
		// Metrics without spans still needs a clock for the duration
		// histograms; a private tracer provides one (no spans recorded).
		m.tr = obs.New()
	}
	if m.spans {
		m.root = c.Obs.Begin("sweep."+grid, obs.Int("cells", int64(cells)))
	}
	if c.Metrics != nil {
		m.cells = c.Metrics.Counter("sweep.cells")
		m.evalOps = c.Metrics.Counter("sweep.cell_eval_ops")
		m.durHist = c.Metrics.Histogram("sweep.cell_log2_us", 40)
		m.rateHist = c.Metrics.Histogram("sweep.cell_log2_eval_ops_per_sec", 48)
		m.occHist = c.Metrics.Histogram("sweep.busy_workers", 64)
	}
	return m
}

// cell marks one grid cell's start and returns its completion func.
// evalOps is the cell's design-evaluation volume (lanes × designs).
func (m *cellMeter) cell(worker int, kernel string, designs int, evalOps uint64) func() {
	if m == nil {
		return func() {}
	}
	start := m.tr.Elapsed()
	busy := m.busy.Add(1)
	var sp *obs.ActiveSpan
	if m.spans {
		sp = m.root.Child("cell",
			obs.Str("kernel", kernel),
			obs.Int("worker", int64(worker)),
			obs.Int("designs", int64(designs)),
			obs.Int("eval_ops", int64(evalOps)),
			obs.Int("queue_wait_us", (start-m.root.Start()).Microseconds()))
	}
	return func() {
		dur := m.tr.Elapsed() - start
		m.busy.Add(-1)
		sp.End()
		if m.cells == nil {
			return
		}
		m.cells.Add(1)
		m.evalOps.Add(evalOps)
		m.occHist.Observe(int(busy))
		m.durHist.Observe(bits.Len64(uint64(dur.Microseconds())))
		if secs := dur.Seconds(); secs > 0 {
			m.rateHist.Observe(bits.Len64(uint64(float64(evalOps) / secs)))
		}
	}
}

// close ends the grid's root span.
func (m *cellMeter) close() {
	if m != nil && m.spans {
		m.root.End()
	}
}

// designBatches splits nd designs into contiguous [lo, hi) batches sized
// so the (kernel × batch) grid still has at least `workers` cells to
// keep every worker busy, clamped to [1, nd] batches. One worker gets
// one batch of everything — the maximum-amortization schedule.
func designBatches(workers, nk, nd int) [][2]int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nb := (workers + nk - 1) / nk
	if nb < 1 {
		nb = 1
	}
	if nb > nd {
		nb = nd
	}
	out := make([][2]int, nb)
	for b := 0; b < nb; b++ {
		out[b] = [2]int{b * nd / nb, (b + 1) * nd / nb}
	}
	return out
}

// foldBatches scatters per-cell batched results back into the flat
// (kernel × design) grid, in fixed order.
func foldBatches[R any](out []R, cells [][]R, batches [][2]int, nk, nd int) {
	nb := len(batches)
	for i := 0; i < nk; i++ {
		for b := 0; b < nb; b++ {
			lo := batches[b][0]
			for x, r := range cells[i*nb+b] {
				out[i*nd+lo+x] = r
			}
		}
	}
}

// foldFig5Rows folds the flat kernel-major (kernel × design) rate grid
// into Fig5 rows: per design, the mean of the per-kernel miss rates in
// fixed suite order. Shared by the in-process and sharded sweeps so
// both paths run the identical float fold.
func foldFig5Rows(designs []string, rates []stats.Rate, nk int) []Fig5Row {
	nd := len(designs)
	out := make([]Fig5Row, nd)
	vals := make([]float64, nk)
	for j, d := range designs {
		for i := 0; i < nk; i++ {
			vals[i] = rates[i*nd+j].Value()
		}
		out[j] = Fig5Row{Design: d, MissRate: stats.Mean(vals)}
	}
	return out
}

// foldFig3Rows folds the flat kernel-major (kernel × scheme) rate grid
// into per-kernel Fig3 rows plus the sample-weighted Average row, in
// fixed suite order. Shared by the in-process and sharded sweeps.
func foldFig3Rows(names []string, rates []stats.Rate) []Fig3Row {
	nk, nd := len(names), len(trace.Fig3Designs)
	rows := make([]Fig3Row, nk)
	var agg [3]stats.Rate
	for i := 0; i < nk; i++ {
		rows[i].Kernel = names[i]
		for j := 0; j < nd; j++ {
			r := rates[i*nd+j]
			rows[i].Rates[j] = r.Value()
			rows[i].Samples[j] = r.Total
			agg[j].Merge(r)
		}
	}
	var avg Fig3Row
	avg.Kernel = "Average"
	for j := range agg {
		avg.Rates[j] = agg[j].Value()
		avg.Samples[j] = agg[j].Total
	}
	return append(rows, avg)
}

// suiteKernels resolves every suite kernel in the decoded set, in suite
// order — the fixed fold order of every grid below.
func suiteKernels(dec *trace.Decoded) ([]string, []*trace.DecodedKernel, error) {
	names := kernels.Names()
	ks := make([]*trace.DecodedKernel, len(names))
	for i, name := range names {
		k, ok := dec.Kernel(name)
		if !ok {
			return nil, nil, fmt.Errorf("experiments: recording set is missing kernel %q", name)
		}
		ks[i] = k
	}
	return names, ks, nil
}

// sweepGrid is the one (kernel × design-batch) grid behind every
// predictor-only figure. It checks dec against cfg, runs one cell per
// (suite kernel, batch) on cfg.SweepWorkers workers — each cell is ONE
// array walk of its kernel scoring the batch's designs with eval — and
// returns the suite's kernel names plus the flat kernel-major
// (kernel × design) result grid. A nil batches partitions designs with
// designBatches. grid names the observability span and metrics.
func sweepGrid[R any](cfg Config, dec *trace.Decoded, grid string, designs []string, batches [][2]int,
	eval func(*trace.DecodedKernel, []string) ([]R, error)) ([]string, []R, error) {
	if err := dec.Matches(cfg.Scale, cfg.NumSMs, cfg.Seed); err != nil {
		return nil, nil, err
	}
	names, ks, err := suiteKernels(dec)
	if err != nil {
		return nil, nil, err
	}
	nk, nd := len(ks), len(designs)
	if batches == nil {
		batches = designBatches(cfg.SweepWorkers, nk, nd)
	}
	nb := len(batches)
	cells := make([][]R, nk*nb)
	meter := cfg.newCellMeter(grid, nk*nb)
	err = runGrid(cfg.SweepWorkers, nk*nb, func(w, t int) error {
		i, b := t/nb, t%nb
		batch := designs[batches[b][0]:batches[b][1]]
		done := meter.cell(w, names[i], len(batch), uint64(ks[i].NumLanes())*uint64(len(batch)))
		rs, err := eval(ks[i], batch)
		done()
		cells[t] = rs
		return err
	})
	meter.close()
	if err != nil {
		return nil, nil, err
	}
	out := make([]R, nk*nd)
	foldBatches(out, cells, batches, nk, nd)
	return names, out, nil
}

// Fig5FromDecoded sweeps the design space over a decoded set: every
// cell of the grid scores its whole design batch in one array walk — no
// varint decoding, no simulation, operand loads amortized across
// designs. Rows are bit-identical at any cfg.SweepWorkers count.
func Fig5FromDecoded(cfg Config, dec *trace.Decoded, designs []string) ([]Fig5Row, error) {
	if designs == nil {
		designs = speculate.DesignSpace
	}
	names, rates, err := sweepGrid(cfg, dec, "fig5", designs, nil, (*trace.DecodedKernel).EvalMissBatch)
	if err != nil {
		return nil, err
	}
	return foldFig5Rows(designs, rates, len(names)), nil
}

// Fig3FromDecoded runs the Figure 3 correlation analysis over a decoded
// set on the sweep grid. Rows are bit-identical at any cfg.SweepWorkers
// count.
func Fig3FromDecoded(cfg Config, dec *trace.Decoded) ([]Fig3Row, error) {
	names, rates, err := sweepGrid(cfg, dec, "fig3", trace.Fig3Designs[:], nil, (*trace.DecodedKernel).EvalCorrBatch)
	if err != nil {
		return nil, err
	}
	return foldFig3Rows(names, rates), nil
}

// approxFromDecoded is the decoded-grid form of the approximate-adder
// study: per design, the unweighted kernel means of the wrong-result
// rate and the mean relative error.
func approxFromDecoded(cfg Config, dec *trace.Decoded, designs []string) ([]ApproxRow, error) {
	names, res, err := sweepGrid(cfg, dec, "approx", designs, nil, (*trace.DecodedKernel).EvalApproxBatch)
	if err != nil {
		return nil, err
	}
	// Sum in suite order: the float fold must not depend on the schedule.
	nk, nd := len(names), len(designs)
	out := make([]ApproxRow, nd)
	for j, d := range designs {
		var wrSum, reSum float64
		for i := 0; i < nk; i++ {
			wrSum += res[i*nd+j].Wrong.Value()
			reSum += res[i*nd+j].MeanRelErr
		}
		out[j] = ApproxRow{
			Design:       d,
			WrongResults: wrSum / float64(nk),
			MeanRelError: reSum / float64(nk),
		}
	}
	return out, nil
}

// Fig5FromDecodedPerDesign is the unbatched decode-once baseline: the
// sweep grid with one design per batch, so every design costs a full
// array walk. Kept for the benchmark harness so the batched kernel's
// amortization is measured against it; rows are bit-identical to
// Fig5FromDecoded.
func Fig5FromDecodedPerDesign(cfg Config, dec *trace.Decoded, designs []string) ([]Fig5Row, error) {
	if designs == nil {
		designs = speculate.DesignSpace
	}
	single := make([][2]int, len(designs))
	for j := range single {
		single[j] = [2]int{j, j + 1}
	}
	names, rates, err := sweepGrid(cfg, dec, "fig5_per_design", designs, single, (*trace.DecodedKernel).EvalMissBatch)
	if err != nil {
		return nil, err
	}
	return foldFig5Rows(designs, rates, len(names)), nil
}

// Fig5FromSetPerDesign is the per-design replay baseline, kept for the
// decode-once benchmark: every design replays — and therefore
// varint-decodes — every kernel's recording from scratch through a
// one-design meter (N designs cost N decodes). Rows are bit-identical
// to the decode-once sweep; only the work distribution differs.
func Fig5FromSetPerDesign(cfg Config, set *trace.Set, designs []string) ([]Fig5Row, error) {
	if designs == nil {
		designs = speculate.DesignSpace
	}
	if err := set.Matches(cfg.Scale, cfg.NumSMs, cfg.Seed); err != nil {
		return nil, err
	}
	out := make([]Fig5Row, len(designs))
	rates := make([]float64, len(kernels.Suite()))
	for j, d := range designs {
		err := cfg.forEachKernel(func(i int, w kernels.Workload) error {
			rec, ok := set.Get(w.Name)
			if !ok {
				return fmt.Errorf("experiments: recording set is missing kernel %q", w.Name)
			}
			meter, err := trace.NewDSEMeter([]string{d})
			if err != nil {
				return err
			}
			if err := trace.Replay(rec, meter); err != nil {
				return err
			}
			rates[i], err = meter.MissRate(d)
			return err
		})
		if err != nil {
			return nil, err
		}
		out[j] = Fig5Row{Design: d, MissRate: stats.Mean(rates)}
	}
	return out, nil
}
