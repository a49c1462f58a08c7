// Command st2dse runs the paper's design-space explorations: the
// carry-speculation sweep of Figure 5 and the slice-bitwidth study of
// Section V-B.
//
// The Figure 5 sweep records each kernel's adder-op stream once, decodes
// it once into flat structure-of-arrays form, and evaluates the designs
// over the parallel (kernel × design-batch) grid: each grid cell walks
// its kernel's arrays once, scoring a whole contiguous batch of designs
// per record (-sweep-workers bounds the pool; results are bit-identical
// at any count). -reuse-trace extends that across processes: the first
// run simulates the suite once and saves the recording set; later runs
// decode straight from the file with zero simulation. -store goes one
// step further: the first run saves the decoded form itself as a
// columnar st2gpu.decoded store, and later runs load the flat arrays
// with no varint decoding at all — the decode is paid once, ever.
// -bench times the design-batched sweep against the unbatched
// decode-once grid and the per-design replay baseline (each design
// varint-decoding the stream from scratch), times the store load
// against the decode pass, verifies all strategies stay bit-identical
// at several worker counts, and appends the comparison to a JSON array.
//
// -shards distributes the sweep: the coordinator spawns N worker
// subprocesses (this same binary with -shard-worker), each of which
// opens the -store file and partially loads ONLY the kernel sections
// its cells name, and folds their integer cell counters in the fixed
// suite × design order — rows stay bit-identical to the in-process
// sweep at any (shards × sweep-workers) combination.
//
// Usage:
//
//	st2dse [-scale N] [-sms N] [-sweep-workers N]  # Figure 5 sweep
//	st2dse -reuse-trace suite.st2rec       # record once, decode thereafter
//	st2dse -store suite.decoded            # decode once, load thereafter
//	st2dse -store suite.decoded -shards 4  # distribute over 4 worker processes
//	st2dse -widths                         # slice-width characterization
//	st2dse -bench BENCH_dse.json           # batched vs decode-once vs per-design vs store vs sharded
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"time"

	"st2gpu/internal/experiments"
	"st2gpu/internal/metrics"
	"st2gpu/internal/obs"
	"st2gpu/internal/report"
	"st2gpu/internal/speculate"
	"st2gpu/internal/trace"
)

func main() {
	var (
		scale    = flag.Int("scale", 1, "workload scale factor")
		sms      = flag.Int("sms", 2, "simulated SM count")
		widths   = flag.Bool("widths", false, "run the slice-bitwidth DSE instead of the speculation sweep")
		format   = flag.String("format", "text", "output format: text, csv, markdown, or json")
		sortCol  = flag.Bool("sort", false, "sort the Figure 5 sweep by miss rate instead of paper order")
		progress = flag.Bool("progress", false, "print [i/n] kernel progress lines to stderr")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and expvar metrics on this address")
		reuse    = flag.String("reuse-trace", "", "recording-set file: replay the sweep from it if it exists, else simulate once and save it first")
		store    = flag.String("store", "", "columnar decoded-store file: load the sweep's flat arrays from it if it exists (no simulation, no varint decode), else build it — from -reuse-trace when given, or a fresh simulation — and save it first")
		bench    = flag.String("bench", "", "time the decode-once parallel sweep vs per-design replay, check bit-identity, write JSON here")
		recCap   = flag.Uint64("record-max-bytes", 0, "per-kernel recording byte cap (0 = default 1 GiB)")
		workers  = flag.Int("sweep-workers", 0, "worker pool for the (kernel × design) sweep grid (0 = GOMAXPROCS, 1 = sequential; results identical at any count)")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the run to this file")
		shards   = flag.Int("shards", 0, "distribute the sweep over this many worker subprocesses (requires -store; results identical to in-process)")
		shardW   = flag.Bool("shard-worker", false, "serve as a sweep shard worker on stdin/stdout (spawned by -shards; not for interactive use)")
	)
	flag.Parse()

	if *shardW {
		if err := experiments.ServeShardWorker(os.Stdin, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	// One process-wide registry: the debug endpoint and the experiment
	// pipeline share it, so /metrics sees sweep-cell histograms accumulate.
	reg := metrics.New()
	if *pprof != "" {
		srv, err := metrics.ServeDebug(*pprof, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "st2dse: serving /debug/pprof, /debug/vars, and /metrics on http://%s\n", srv.Addr())
	}
	var tr *obs.Tracer
	if *traceOut != "" {
		tr = obs.New()
		defer func() {
			if err := tr.WriteChromeTraceFile(*traceOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "st2dse: wrote %d spans to %s\n", tr.Len(), *traceOut)
		}()
	}

	if *widths {
		results, best, err := experiments.SliceWidthDSE()
		if err != nil {
			fatal(err)
		}
		tbl := report.New("Section V-B — slice width characterization",
			"slice bits", "structure", "slices", "supply (V)", "V/Vnom", "adder saving", "predictions/op", "chosen")
		for i, r := range results {
			marker := ""
			if i == best {
				marker = "<=" // paper: 8-bit
			}
			tbl.Add(r.SliceBits, r.Kind.String(), r.NumSlices,
				fmt.Sprintf("%.3f", r.ScaledSupply), fmt.Sprintf("%.2f", r.SupplyRatio),
				report.Pct(r.EnergySaving), r.PredictionsPerOp, marker)
		}
		printTable(tbl, *format)
		return
	}

	cfg := experiments.Default()
	cfg.Scale = *scale
	cfg.NumSMs = *sms
	cfg.RecordMaxBytes = *recCap
	cfg.SweepWorkers = *workers
	cfg.Metrics = reg
	cfg.Obs = tr
	if *progress {
		cfg.Progress = func(done, total int, name string) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s\n", done, total, name)
		}
	}

	if *bench != "" {
		if err := runBench(cfg, *bench); err != nil {
			fatal(err)
		}
		return
	}

	var rows []experiments.Fig5Row
	var err error
	switch {
	case *shards > 0:
		if *store == "" {
			fatal(fmt.Errorf("-shards needs -store: shard workers load their kernel sections from the store file"))
		}
		rows, err = sweepSharded(cfg, *store, *reuse, *shards)
	case *store != "":
		rows, err = sweepUsingStore(cfg, *store, *reuse)
	case *reuse != "":
		rows, err = sweepReusingTrace(cfg, *reuse)
	default:
		rows, err = experiments.Fig5(cfg, nil)
	}
	if err != nil {
		fatal(err)
	}
	tbl := report.New("Figure 5 — carry-speculation design space",
		"design", "avg thread misprediction rate")
	for _, r := range rows {
		tbl.Add(r.Design, report.Pct(r.MissRate))
	}
	if *sortCol {
		tbl.SortBy(1)
	}
	printTable(tbl, *format)
}

// reuseSet loads the recording set from path when it exists; otherwise
// it simulates the suite once and saves the capture there.
func reuseSet(cfg experiments.Config, path string) (*trace.Set, error) {
	set, err := trace.ReadSetFileLimit(path, cfg.RecordMaxBytes)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "st2dse: replaying %d kernels (%d bytes) from %s — no simulation\n",
			len(set.Names()), set.Bytes(), path)
	case os.IsNotExist(err):
		if set, err = experiments.RecordSuite(cfg); err != nil {
			return nil, err
		}
		if err := set.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "st2dse: recorded the suite once (%d bytes) to %s; future runs replay it\n",
			set.Bytes(), path)
	default:
		return nil, err
	}
	return set, nil
}

// sweepReusingTrace replays the sweep from path when the recording set
// already exists; otherwise it simulates the suite once, saves the set,
// and replays from the fresh capture. Either way the set is decoded
// once and swept on the in-process grid.
func sweepReusingTrace(cfg experiments.Config, path string) ([]experiments.Fig5Row, error) {
	set, err := reuseSet(cfg, path)
	if err != nil {
		return nil, err
	}
	dec, err := trace.DecodeSetTraced(set, cfg.Obs)
	if err != nil {
		return nil, err
	}
	return experiments.Fig5FromDecoded(cfg, dec, nil)
}

// sweepUsingStore runs the sweep from the columnar decoded store at
// storePath when it exists — no simulation and no varint decode, just a
// sequential column load. Otherwise it obtains a recording set (from
// reusePath when given, else a fresh simulation), decodes it once, saves
// the decoded form, and sweeps from that.
func sweepUsingStore(cfg experiments.Config, storePath, reusePath string) ([]experiments.Fig5Row, error) {
	dec, err := trace.ReadStoreFileTraced(storePath, cfg.RecordMaxBytes, cfg.SweepWorkers, cfg.Obs)
	switch {
	case err == nil:
		fmt.Fprintf(os.Stderr, "st2dse: loaded %d decoded kernels (%d records, %d lanes) from %s — no simulation, no varint decode\n",
			len(dec.Names()), dec.NumOps(), dec.NumLanes(), storePath)
	case os.IsNotExist(err):
		var set *trace.Set
		if reusePath != "" {
			set, err = reuseSet(cfg, reusePath)
		} else {
			set, err = experiments.RecordSuite(cfg)
		}
		if err != nil {
			return nil, err
		}
		if dec, err = trace.DecodeSetTraced(set, cfg.Obs); err != nil {
			return nil, err
		}
		if err := dec.WriteStoreFileTraced(storePath, trace.StoreOptions{}, cfg.Obs); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "st2dse: decoded the suite once and stored it to %s; future runs load the flat arrays directly\n",
			storePath)
	default:
		return nil, err
	}
	return experiments.Fig5FromDecoded(cfg, dec, nil)
}

// ensureStore makes sure the decoded store exists at storePath,
// building it (from reusePath's recording set when given, else a fresh
// simulation) when missing.
func ensureStore(cfg experiments.Config, storePath, reusePath string) error {
	_, err := os.Stat(storePath)
	if err == nil {
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	var set *trace.Set
	if reusePath != "" {
		set, err = reuseSet(cfg, reusePath)
	} else {
		set, err = experiments.RecordSuite(cfg)
	}
	if err != nil {
		return err
	}
	dec, err := trace.DecodeSetTraced(set, cfg.Obs)
	if err != nil {
		return err
	}
	if err := dec.WriteStoreFileTraced(storePath, trace.StoreOptions{}, cfg.Obs); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "st2dse: decoded the suite once and stored it to %s; future runs load kernel sections directly\n",
		storePath)
	return nil
}

// sweepSharded distributes the Figure 5 sweep over shard worker
// subprocesses (this same binary re-run with -shard-worker), each
// loading only its assigned kernels' sections from the store. Rows are
// bit-identical to the in-process sweep.
func sweepSharded(cfg experiments.Config, storePath, reusePath string, shards int) ([]experiments.Fig5Row, error) {
	if err := ensureStore(cfg, storePath, reusePath); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	conns, err := experiments.SpawnWorkers(shards, func() *exec.Cmd {
		return exec.Command(exe, "-shard-worker")
	})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "st2dse: sweeping over %d shard workers from %s\n", shards, storePath)
	return experiments.Fig5Sharded(cfg, storePath, nil, conns, experiments.ShardOptions{})
}

// benchResult is one BENCH_dse.json entry: wall-clock for the three
// sweep strategies — design-batched (one array walk per kernel scores a
// whole design batch), unbatched decode-once (one walk per design), and
// the per-design replay baseline (each design varint-decoding the
// recorded stream from scratch) — plus the eval throughputs behind the
// trade and the bit-identity verdict. BENCH_dse.json is an append-only
// JSON array of these, newest last.
type benchResult struct {
	Scale             int     `json:"scale"`
	NumSMs            int     `json:"num_sms"`
	Designs           int     `json:"designs"`
	SweepWorkers      int     `json:"sweep_workers"`       // grid pool size the timed sweeps used
	RecordSeconds     float64 `json:"record_seconds"`      // simulate the suite once, recording
	DecodeSeconds     float64 `json:"decode_seconds"`      // the single SoA decode pass
	DecodeOpsPerSec   float64 `json:"decode_ops_per_sec"`  // recorded_ops / decode_seconds
	BatchedSeconds    float64 `json:"batched_seconds"`     // design-batched (kernel × design-batch) grid, post-decode
	DecodeOnceSeconds float64 `json:"decode_once_seconds"` // unbatched (kernel × design) grid, post-decode
	PerDesignSeconds  float64 `json:"per_design_seconds"`  // PR-3 path: one full replay per design
	EvalOps           uint64  `json:"eval_ops"`            // recorded_ops × designs: the work every strategy performs
	BatchedEvalRate   float64 `json:"batched_eval_ops_per_sec"`
	PerDesignEvalRate float64 `json:"per_design_eval_ops_per_sec"`
	Speedup           float64 `json:"speedup"`         // per_design / (decode + decode_once)
	BatchedSpeedup    float64 `json:"batched_speedup"` // per_design / batched: the design-batching win
	Identical         bool    `json:"identical"`       // all strategies agree at every tested worker count
	RecordedBytes     uint64  `json:"recorded_bytes"`  // encoded stream size for the suite
	RecordedOps       uint64  `json:"recorded_ops"`    // warp-add records captured
	StoreBytes        uint64  `json:"store_bytes"`     // columnar decoded-store size
	StoreEncodeSecs   float64 `json:"store_encode_seconds"`
	StoreLoadSecs     float64 `json:"store_load_seconds"`     // load the flat arrays back (no varint decode)
	StoreLoadRate     float64 `json:"store_load_ops_per_sec"` // recorded_ops / store_load_seconds
	StoreSpeedup      float64 `json:"store_load_speedup"`     // decode_seconds / store_load_seconds
	Shards            int     `json:"shards"`                 // worker subprocesses the sharded sweep used
	ShardedSecs       float64 `json:"sharded_seconds"`        // distributed sweep wall-clock (incl. worker spawn + partial loads)
	ShardedEvalRate   float64 `json:"sharded_eval_ops_per_sec"`
	ShardedVsBatched  float64 `json:"sharded_vs_batched"`             // batched_seconds / sharded_seconds (<1 on one box: IPC tax)
	PartialLoadSecs   float64 `json:"store_partial_load_seconds"`     // OpenStore + LoadKernels of one kernel
	PartialLoadRate   float64 `json:"store_partial_load_ops_per_sec"` // that kernel's records / partial_load_seconds
	PartialSpeedup    float64 `json:"store_partial_load_speedup"`     // store_load_seconds / partial_load_seconds
	HostParallel      int     `json:"host_parallelism"`
}

func runBench(cfg experiments.Config, outPath string) error {
	designs := speculate.DesignSpace

	tRecord := time.Now()
	set, err := experiments.RecordSuite(cfg)
	if err != nil {
		return err
	}
	recordSecs := time.Since(tRecord).Seconds()

	// The shared up-front cost of both decode-once strategies: one SoA
	// decode pass.
	tDecode := time.Now()
	dec, err := trace.DecodeSetTraced(set, cfg.Obs)
	if err != nil {
		return err
	}
	decodeSecs := time.Since(tDecode).Seconds()

	// Design-batched: the (kernel × design-batch) grid, one array walk
	// per cell scoring its whole batch.
	tBatched := time.Now()
	batchedRows, err := experiments.Fig5FromDecoded(cfg, dec, designs)
	if err != nil {
		return err
	}
	batchedSecs := time.Since(tBatched).Seconds()

	// Unbatched decode-once: the pre-batching (kernel × design) grid,
	// one full array walk per design.
	tOnce := time.Now()
	onceRows, err := experiments.Fig5FromDecodedPerDesign(cfg, dec, designs)
	if err != nil {
		return err
	}
	onceSecs := time.Since(tOnce).Seconds()

	// Baseline: the PR-3 sweep shape — every design replays (and
	// varint-decodes) the full recording set from scratch.
	tPer := time.Now()
	perRows, err := experiments.Fig5FromSetPerDesign(cfg, set, designs)
	if err != nil {
		return err
	}
	perSecs := time.Since(tPer).Seconds()

	// The store path: serialize the decoded form once, then time loading
	// it back — the steady-state cost every future sweep pays instead of
	// the varint decode.
	var storeBuf bytes.Buffer
	tEncode := time.Now()
	if _, err := trace.WriteDecodedTraced(&storeBuf, dec, trace.StoreOptions{}, cfg.Obs); err != nil {
		return err
	}
	encodeSecs := time.Since(tEncode).Seconds()
	tLoad := time.Now()
	loaded, err := trace.ReadDecodedTraced(bytes.NewReader(storeBuf.Bytes()), 0, 0, cfg.Obs)
	if err != nil {
		return err
	}
	loadSecs := time.Since(tLoad).Seconds()
	storeRows, err := experiments.Fig5FromDecoded(cfg, loaded, designs)
	if err != nil {
		return err
	}

	// The distributed path needs the store on disk: persist the encoded
	// bytes once and time (a) a selective single-kernel load against the
	// full load above, and (b) the sharded sweep over two real worker
	// subprocesses against the in-process batched sweep.
	storeFile, err := os.CreateTemp("", "st2dse-bench-*.st2dec")
	if err != nil {
		return err
	}
	storePath := storeFile.Name()
	defer os.Remove(storePath)
	if _, err := storeFile.Write(storeBuf.Bytes()); err != nil {
		return err
	}
	if err := storeFile.Close(); err != nil {
		return err
	}

	firstKernel := dec.Names()[0]
	tPartial := time.Now()
	handle, err := trace.OpenStoreTraced(storePath, 0, cfg.Obs)
	if err != nil {
		return err
	}
	partial, err := handle.LoadKernelsTraced([]string{firstKernel}, 0, cfg.Obs)
	if err != nil {
		return err
	}
	partialSecs := time.Since(tPartial).Seconds()
	partialKernel, _ := partial.Kernel(firstKernel)
	fullKernel, _ := dec.Kernel(firstKernel)

	const benchShards = 2
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tSharded := time.Now()
	conns, err := experiments.SpawnWorkers(benchShards, func() *exec.Cmd {
		return exec.Command(exe, "-shard-worker")
	})
	if err != nil {
		return err
	}
	shardedRows, err := experiments.Fig5Sharded(cfg, storePath, designs, conns, experiments.ShardOptions{})
	if err != nil {
		return err
	}
	shardedSecs := time.Since(tSharded).Seconds()

	// Bit-identity: the timed runs, a sequential run, an oversubscribed
	// run, the store round-trip, the selective load, and the distributed
	// sweep must all deep-equal the per-design baseline.
	identical := reflect.DeepEqual(batchedRows, perRows) && reflect.DeepEqual(onceRows, perRows) &&
		reflect.DeepEqual(dec, loaded) && reflect.DeepEqual(storeRows, perRows) &&
		reflect.DeepEqual(partialKernel, fullKernel) && reflect.DeepEqual(shardedRows, perRows)
	for _, w := range []int{1, 2 * runtime.GOMAXPROCS(0)} {
		c := cfg
		c.SweepWorkers = w
		rows, err := experiments.Fig5FromDecoded(c, dec, designs)
		if err != nil {
			return err
		}
		identical = identical && reflect.DeepEqual(rows, perRows)
	}

	sweepWorkers := cfg.SweepWorkers
	if sweepWorkers <= 0 {
		sweepWorkers = runtime.GOMAXPROCS(0)
	}
	evalOps := set.NumOps() * uint64(len(designs))
	res := benchResult{
		Scale:             cfg.Scale,
		NumSMs:            cfg.NumSMs,
		Designs:           len(designs),
		SweepWorkers:      sweepWorkers,
		RecordSeconds:     recordSecs,
		DecodeSeconds:     decodeSecs,
		BatchedSeconds:    batchedSecs,
		DecodeOnceSeconds: onceSecs,
		PerDesignSeconds:  perSecs,
		EvalOps:           evalOps,
		Identical:         identical,
		RecordedBytes:     set.Bytes(),
		RecordedOps:       set.NumOps(),
		StoreBytes:        uint64(storeBuf.Len()),
		StoreEncodeSecs:   encodeSecs,
		StoreLoadSecs:     loadSecs,
		Shards:            benchShards,
		ShardedSecs:       shardedSecs,
		PartialLoadSecs:   partialSecs,
		HostParallel:      runtime.GOMAXPROCS(0),
	}
	if decodeSecs > 0 {
		res.DecodeOpsPerSec = float64(set.NumOps()) / decodeSecs
	}
	if loadSecs > 0 {
		res.StoreLoadRate = float64(set.NumOps()) / loadSecs
		res.StoreSpeedup = decodeSecs / loadSecs
	}
	if batchedSecs > 0 {
		res.BatchedEvalRate = float64(evalOps) / batchedSecs
		res.BatchedSpeedup = perSecs / batchedSecs
	}
	if perSecs > 0 {
		res.PerDesignEvalRate = float64(evalOps) / perSecs
	}
	if decodeSecs+onceSecs > 0 {
		res.Speedup = perSecs / (decodeSecs + onceSecs)
	}
	if shardedSecs > 0 {
		res.ShardedEvalRate = float64(evalOps) / shardedSecs
		res.ShardedVsBatched = batchedSecs / shardedSecs
	}
	if partialSecs > 0 {
		res.PartialLoadRate = float64(partialKernel.NumRecords()) / partialSecs
		res.PartialSpeedup = loadSecs / partialSecs
	}
	if err := obs.AppendTrend(outPath, res); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "st2dse: bench: batched %.3fs (%.0f eval-ops/s, %.1fx) vs decode-once %.2fs vs per-design replay %.2fs (decode %.3fs, %.0f ops/s), store load %.4fs (%.0f ops/s, %.1fx over decode, %d bytes), partial load %.5fs (%.1fx over full), sharded×%d %.3fs (%.0f eval-ops/s), workers=%d, identical=%v → %s\n",
		batchedSecs, res.BatchedEvalRate, res.BatchedSpeedup, onceSecs, perSecs, decodeSecs, res.DecodeOpsPerSec,
		loadSecs, res.StoreLoadRate, res.StoreSpeedup, storeBuf.Len(), partialSecs, res.PartialSpeedup,
		benchShards, shardedSecs, res.ShardedEvalRate, sweepWorkers, identical, outPath)
	if !identical {
		return fmt.Errorf("st2dse: sweep rows are NOT bit-identical across strategies")
	}
	return nil
}

func printTable(t *report.Table, format string) {
	out, err := t.Render(format)
	if err != nil {
		fatal(err)
	}
	fmt.Print(out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "st2dse:", err)
	os.Exit(1)
}
