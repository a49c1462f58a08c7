package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"st2gpu/internal/circuit"
	"st2gpu/internal/core"
	"st2gpu/internal/experiments"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/obs"
	"st2gpu/internal/power"
	"st2gpu/internal/speculate"
	"st2gpu/internal/trace"
)

// config is one benchmark run's model configuration.
type config struct {
	scale, sms int
	seed       int64
	tmpDir     string // scratch directory inside the checkout
}

// exp returns the experiments configuration. SweepWorkers and
// ParallelSMs stay 0: both default to GOMAXPROCS-bounded pools.
func (c config) exp() experiments.Config {
	return experiments.Config{Scale: c.scale, NumSMs: c.sms, Seed: c.seed}
}

// passOut is what one pass hands back for checking, outside its timing.
type passOut struct {
	ops    tally
	fp     fingerprint        // modelled results, checked per group
	counts map[string]float64 // exact modelled counts reported per layer
	notes  []string           // extra report lines
	keep   any                // workload data its cross-check needs
}

// work is the fixed amount of work one pass covers, the numerators of
// the throughput metrics. A workload whose pass does not itself do a
// kind of work reports the amount its input stands for, and says so.
type work struct {
	threadInstrs float64 // modelled thread instructions
	evalOps      float64 // warp-add records × designs scored
	simNote      string  // how threadInstrs relates to this pass
	evalNote     string  // how evalOps relates to this pass
}

// runner is a workload after setup: its passes can run any number of
// times and must produce identical modelled results each time.
type runner interface {
	// pass runs one pass; root is nil in an untraced pass.
	pass(root *obs.ActiveSpan) passOut
	// check runs the workload's seed-independent cross-checks on a pass.
	check(out passOut) tally
	// work returns the per-pass work counts, given the warm-up pass.
	work(warm passOut) (work, error)
	close()
}

type workloadDef struct {
	name, why string
	setup     func(c config) (runner, error)
}

var workloads = []workloadDef{
	{"suite_sim", "23 kernels x baseline and ST2 adders through build, gpusim, Verify and power; the simulator does almost all the work", newSuiteSim},
	{"dse_sweep", "store load then the Fig 5 and Fig 3 sweeps over the decoded suite; batched eval and the sweep grid do almost all the work", newDSESweep},
	{"cold_study", "record the suite, decode, encode the store in memory, sweep Fig 5: the first run after a kernel, scale or seed change", newColdStudy},
	{"store_io", "encode the decoded suite to a file, load it whole and one kernel at a time; only here the store dominates", newStoreIO},
}

func lookup(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// fig3Fig5Designs is how many designs one Fig 5 + Fig 3 sweep scores.
var fig3Fig5Designs = float64(len(speculate.DesignSpace) + len(trace.Fig3Designs))

// suiteThreadInstrs simulates the suite once on baseline adders and
// returns its thread instructions: what RecordSuite simulates, and what
// a recorded suite's adder stream stands for.
func suiteThreadInstrs(c config) (float64, error) {
	runs, err := experiments.RunSuite(c.exp(), gpusim.BaselineAdders, nil)
	if err != nil {
		return 0, err
	}
	var t float64
	for _, rs := range runs {
		t += float64(rs.TotalThreadInstrs())
	}
	return t, nil
}

// --- suite_sim ---

type suiteSim struct {
	c   config
	ws  []kernels.Workload
	tbl power.Table
}

func newSuiteSim(c config) (runner, error) {
	tbl, err := power.DefaultTable(circuit.SAED90())
	if err != nil {
		return nil, err
	}
	return &suiteSim{c: c, ws: kernels.Suite(), tbl: tbl}, nil
}

// launchOut is one kernel launch's outputs.
type launchOut struct {
	rs     *gpusim.RunStats
	energy float64 // power.FromRun total, J
}

// launchFP is the checked part of one launch's RunStats.
type launchFP struct {
	Cycles          uint64            `json:"cycles"`
	ThreadInstrs    uint64            `json:"thread_instrs"`
	UnitThreadOps   map[string]uint64 `json:"unit_thread_ops"`
	UnitMispredicts map[string]uint64 `json:"unit_thread_mispredicts"`
	RecomputeHist   []uint64          `json:"recompute_hist"`
	CRFConflicts    uint64            `json:"crf_conflicts"`
	L1              gpusim.CacheStats `json:"l1"`
	L2              gpusim.CacheStats `json:"l2"`
	DRAMAccesses    uint64            `json:"dram_accesses"`
	ST2StallCycles  uint64            `json:"st2_stall_cycles"`
	Energy          float64           `json:"energy_j"`
}

var modes = []gpusim.AdderMode{gpusim.BaselineAdders, gpusim.ST2Adders}

func (s *suiteSim) pass(root *obs.ActiveSpan) passOut {
	var out passOut
	runs := make([]launchOut, 0, 2*len(s.ws))
	for _, w := range s.ws {
		for _, mode := range modes {
			lo, err := s.launch(root, w, mode)
			if !out.ops.op(err) {
				continue
			}
			runs = append(runs, lo)
		}
	}
	out.fp = fingerprint{}
	for _, lo := range runs {
		out.fp["launch/"+lo.rs.Kernel+"/"+lo.rs.Mode.String()] = fingerprintLaunch(lo)
	}
	out.counts = suiteCounts(runs)
	out.notes = modelHeadline(runs)
	out.keep = runs
	return out
}

// launch runs one kernel on a fresh device: build, new device, stage
// inputs, launch, Verify the outputs, price the activity.
func (s *suiteSim) launch(root *obs.ActiveSpan, w kernels.Workload, mode gpusim.AdderMode) (launchOut, error) {
	sp := root.Child(spanKernel, obs.Str("kernel", w.Name), obs.Str("mode", mode.String()))
	defer sp.End()
	var spec *kernels.Spec
	if err := layer(sp, "kernels.build", func() (err error) {
		spec, err = w.Build(s.c.scale)
		return err
	}); err != nil {
		return launchOut{}, fmt.Errorf("%s build: %w", w.Name, err)
	}
	if spec.Verify == nil {
		return launchOut{}, fmt.Errorf("%s has no output check", w.Name)
	}
	dc := gpusim.DefaultConfig()
	dc.NumSMs = s.c.sms
	dc.AdderMode = mode
	dc.Seed = s.c.seed
	var d *gpusim.Device
	if err := layer(sp, "gpusim.new", func() (err error) {
		d, err = gpusim.New(dc)
		return err
	}); err != nil {
		return launchOut{}, fmt.Errorf("%s new device: %w", w.Name, err)
	}
	if spec.Setup != nil {
		if err := layer(sp, "kernels.setup", func() error { return spec.Setup(d.Memory()) }); err != nil {
			return launchOut{}, fmt.Errorf("%s setup: %w", w.Name, err)
		}
	}
	var rs *gpusim.RunStats
	if err := layer(sp, "gpusim.launch."+mode.String(), func() (err error) {
		rs, err = d.Launch(spec.Kernel)
		return err
	}); err != nil {
		return launchOut{}, fmt.Errorf("%s %s launch: %w", w.Name, mode, err)
	}
	if err := layer(sp, "kernels.verify", func() error { return spec.Verify(d.Memory()) }); err != nil {
		return launchOut{}, fmt.Errorf("%s %s verify: %w", w.Name, mode, err)
	}
	var b power.Breakdown
	_ = layer(sp, "power.from_run", func() error {
		b = power.FromRun(rs, d.Prices(), s.tbl)
		return nil
	})
	return launchOut{rs: rs, energy: b.Total()}, nil
}

func fingerprintLaunch(lo launchOut) launchFP {
	rs := lo.rs
	fp := launchFP{
		Cycles:          rs.Cycles,
		ThreadInstrs:    rs.TotalThreadInstrs(),
		UnitThreadOps:   map[string]uint64{},
		UnitMispredicts: map[string]uint64{},
		CRFConflicts:    rs.CRF.Conflicts,
		L1:              rs.L1,
		L2:              rs.L2,
		DRAMAccesses:    rs.DRAMAccesses,
		ST2StallCycles:  rs.ST2StallCycles,
		Energy:          lo.energy,
	}
	for _, k := range core.UnitKinds {
		if u, ok := rs.Units[k]; ok {
			fp.UnitThreadOps[k.String()] = u.ThreadOps
			fp.UnitMispredicts[k.String()] = u.ThreadMispredicts
		}
	}
	if rs.RecomputeHist != nil {
		fp.RecomputeHist = rs.RecomputeHist.Counts
	}
	return fp
}

// suiteCounts folds the suite's modelled per-layer counts.
func suiteCounts(runs []launchOut) map[string]float64 {
	var instrs, cycles, mis, ops, crf, l1h, l1a, dram, stall, recN, recSum float64
	for _, lo := range runs {
		rs := lo.rs
		instrs += float64(rs.TotalThreadInstrs())
		cycles += float64(rs.Cycles)
		for _, k := range core.UnitKinds {
			u := rs.Units[k]
			mis += float64(u.ThreadMispredicts)
			ops += float64(u.ThreadOps)
		}
		crf += float64(rs.CRF.Conflicts)
		l1h += float64(rs.L1.Hits)
		l1a += float64(rs.L1.Accesses)
		dram += float64(rs.DRAMAccesses)
		stall += float64(rs.ST2StallCycles)
		if h := rs.RecomputeHist; h != nil {
			for v, c := range h.Counts {
				recN += float64(c)
				recSum += float64(v) * float64(c)
			}
		}
	}
	return map[string]float64{
		"gpusim.thread_instrs":            instrs,
		"gpusim.sim_cycles":               cycles,
		"gpusim.mispredict_rate":          ratio(mis, ops),
		"gpusim.recompute_per_mispredict": ratio(recSum, recN),
		"gpusim.crf_conflicts":            crf,
		"gpusim.l1_hit_rate":              ratio(l1h, l1a),
		"gpusim.dram_accesses":            dram,
		"gpusim.st2_stall_cycles":         stall,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// modelHeadline prints the reproduced headline numbers beside the
// paper's. The model has not been validated against hardware, so no
// error figure is given.
func modelHeadline(runs []launchOut) []string {
	base := map[string]launchOut{}
	for _, lo := range runs {
		if lo.rs.Mode == gpusim.BaselineAdders {
			base[lo.rs.Kernel] = lo
		}
	}
	var mis, saving, overhead, n float64
	for _, lo := range runs {
		b, ok := base[lo.rs.Kernel]
		if lo.rs.Mode != gpusim.ST2Adders || !ok {
			continue
		}
		mis += lo.rs.MispredictionRate()
		saving += 1 - lo.energy/b.energy
		overhead += float64(lo.rs.Cycles)/float64(b.rs.Cycles) - 1
		n++
	}
	if n == 0 {
		return nil
	}
	return []string{
		"model (unvalidated against hardware; reproduced vs paper, no error figure):",
		fmt.Sprintf("  Fig 6 mean thread misprediction rate  %6.2f%%   paper ~9%%", 100*mis/n),
		fmt.Sprintf("  Fig 7 mean system energy saving       %6.2f%%   paper ~19%%", 100*saving/n),
		fmt.Sprintf("  mean performance overhead             %6.3f%%   paper ~0.36%%", 100*overhead/n),
	}
}

func (s *suiteSim) check(passOut) tally { return tally{} }

func (s *suiteSim) work(warm passOut) (work, error) {
	runs, _ := warm.keep.([]launchOut)
	w := work{threadInstrs: warm.counts["gpusim.thread_instrs"]}
	for _, lo := range runs {
		if lo.rs.Mode == gpusim.ST2Adders {
			for _, k := range core.UnitKinds {
				w.evalOps += float64(lo.rs.Units[k].WarpOps)
			}
		}
	}
	w.simNote = "simulated by the pass"
	w.evalNote = "ST2 warp adds scored live by the shipped design"
	return w, nil
}

func (s *suiteSim) close() {}

// --- dse_sweep ---

type dseSweep struct {
	c         config
	storePath string
	ref       fingerprint // rows from the in-memory decode, built in setup
	records   float64
}

func newDSESweep(c config) (runner, error) {
	cfg := c.exp()
	set, err := experiments.RecordSuite(cfg)
	if err != nil {
		return nil, err
	}
	dec, err := trace.DecodeSet(set)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(c.tmpDir, "dse_sweep.decoded")
	if _, err := writeStore(path, dec); err != nil {
		return nil, err
	}
	f5, err := experiments.Fig5FromDecoded(cfg, dec, nil)
	if err != nil {
		return nil, err
	}
	f3, err := experiments.Fig3FromDecoded(cfg, dec)
	if err != nil {
		return nil, err
	}
	return &dseSweep{c: c, storePath: path, ref: fingerprint{"fig5": f5, "fig3": f3},
		records: float64(dec.NumOps())}, nil
}

// writeStore encodes dec to a store file at path and returns its size.
func writeStore(path string, dec *trace.Decoded) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	n, err := trace.WriteDecoded(bw, dec, trace.StoreOptions{})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

func (d *dseSweep) pass(root *obs.ActiveSpan) passOut {
	var out passOut
	cfg := d.c.exp()
	var h *trace.StoreHandle
	if !out.ops.op(layer(root, "trace.store_open", func() (err error) {
		h, err = trace.OpenStore(d.storePath, 0)
		return err
	})) {
		return out
	}
	var dec *trace.Decoded
	if !out.ops.op(layer(root, "trace.store_load", func() (err error) {
		dec, err = h.LoadKernels(h.Names(), 0)
		return err
	})) {
		return out
	}
	out.fp = fingerprint{}
	var f5 []experiments.Fig5Row
	if out.ops.op(layer(root, "experiments.fig5", func() (err error) {
		f5, err = experiments.Fig5FromDecoded(cfg, dec, nil)
		return err
	})) {
		out.fp["fig5"] = f5
	}
	var f3 []experiments.Fig3Row
	if out.ops.op(layer(root, "experiments.fig3", func() (err error) {
		f3, err = experiments.Fig3FromDecoded(cfg, dec)
		return err
	})) {
		out.fp["fig3"] = f3
	}
	return out
}

// check: rows from the loaded store must equal the rows computed from
// the in-memory decode during setup.
func (d *dseSweep) check(out passOut) tally {
	want, err := d.ref.canon()
	if err != nil {
		var t tally
		t.op(err)
		return t
	}
	return compareGroups("store rows vs in-memory rows", out.fp, want)
}

func (d *dseSweep) work(passOut) (work, error) {
	t, err := suiteThreadInstrs(d.c)
	return work{
		threadInstrs: t,
		evalOps:      d.records * fig3Fig5Designs,
		simNote:      "not simulated here: the thread instructions of the recorded suite",
		evalNote:     "Fig 5 and Fig 3 designs scored by the pass",
	}, err
}

func (d *dseSweep) close() { os.Remove(d.storePath) }

// --- cold_study ---

type coldStudy struct {
	c config
}

func newColdStudy(c config) (runner, error) { return &coldStudy{c: c}, nil }

func (s *coldStudy) pass(root *obs.ActiveSpan) passOut {
	var out passOut
	cfg := s.c.exp()
	var set *trace.Set
	if !out.ops.op(layer(root, "experiments.record_suite", func() (err error) {
		set, err = experiments.RecordSuite(cfg)
		return err
	})) {
		return out
	}
	var dec *trace.Decoded
	if !out.ops.op(layer(root, "trace.decode", func() (err error) {
		dec, err = trace.DecodeSet(set)
		return err
	})) {
		return out
	}
	var n int64
	if !out.ops.op(layer(root, "trace.store_encode", func() (err error) {
		var buf bytes.Buffer
		n, err = trace.WriteDecoded(&buf, dec, trace.StoreOptions{})
		return err
	})) {
		return out
	}
	var f5 []experiments.Fig5Row
	if !out.ops.op(layer(root, "experiments.fig5", func() (err error) {
		f5, err = experiments.Fig5FromDecoded(cfg, dec, nil)
		return err
	})) {
		return out
	}
	out.fp = fingerprint{
		"fig5":         f5,
		"store_bytes":  n,
		"records":      set.NumOps(),
		"record_bytes": set.Bytes(),
		"lanes":        dec.NumLanes(),
	}
	out.counts = map[string]float64{
		"gpusim.recorded_records": float64(set.NumOps()),
		"gpusim.record_bytes":     float64(set.Bytes()),
	}
	return out
}

func (s *coldStudy) check(passOut) tally { return tally{} }

func (s *coldStudy) work(warm passOut) (work, error) {
	t, err := suiteThreadInstrs(s.c)
	return work{
		threadInstrs: t,
		evalOps:      warm.counts["gpusim.recorded_records"] * float64(len(speculate.DesignSpace)),
		simNote:      "simulated by RecordSuite in the pass",
		evalNote:     "Fig 5 designs scored by the pass",
	}, err
}

func (s *coldStudy) close() {}

// --- store_io ---

type storeIO struct {
	c    config
	dec  *trace.Decoded
	path string
}

func newStoreIO(c config) (runner, error) {
	set, err := experiments.RecordSuite(c.exp())
	if err != nil {
		return nil, err
	}
	dec, err := trace.DecodeSet(set)
	if err != nil {
		return nil, err
	}
	return &storeIO{c: c, dec: dec, path: filepath.Join(c.tmpDir, "store_io.decoded")}, nil
}

// storeLoads is what a store_io pass loaded, for the cross-check.
type storeLoads struct {
	full  *trace.Decoded
	parts []*trace.Decoded
}

func (s *storeIO) pass(root *obs.ActiveSpan) passOut {
	var out passOut
	var n int64
	if !out.ops.op(layer(root, "trace.store_encode", func() (err error) {
		n, err = writeStore(s.path, s.dec)
		return err
	})) {
		return out
	}
	var h *trace.StoreHandle
	if !out.ops.op(layer(root, "trace.store_open", func() (err error) {
		h, err = trace.OpenStore(s.path, 0)
		return err
	})) {
		return out
	}
	var loads storeLoads
	if !out.ops.op(layer(root, "trace.store_load", func() (err error) {
		loads.full, err = h.LoadKernels(h.Names(), 0)
		return err
	})) {
		return out
	}
	for _, name := range s.dec.Names() {
		var part *trace.Decoded
		if out.ops.op(layer(root, "trace.store_partial_load", func() (err error) {
			part, err = h.LoadKernels([]string{name}, 0)
			return err
		})) {
			loads.parts = append(loads.parts, part)
		}
	}
	lanes := s.dec.NumLanes()
	out.fp = fingerprint{"store_bytes": n, "lanes": lanes, "records": s.dec.NumOps()}
	out.counts = map[string]float64{
		"trace.store_bytes":          float64(n),
		"trace.store_bytes_per_lane": ratio(float64(n), float64(lanes)),
	}
	out.keep = loads
	return out
}

// check: the set loaded back, whole and kernel by kernel, must equal
// the set encoded.
func (s *storeIO) check(out passOut) tally {
	var t tally
	loads, ok := out.keep.(storeLoads)
	if !ok || loads.full == nil {
		return t
	}
	if !sameDecoded(loads.full, s.dec) {
		t.op(errors.New("store_io: full load differs from the encoded set"))
	} else {
		t.op(nil)
	}
	for i, name := range s.dec.Names() {
		if i >= len(loads.parts) {
			break
		}
		got, ok := loads.parts[i].Kernel(name)
		want, _ := s.dec.Kernel(name)
		if !ok || len(loads.parts[i].Names()) != 1 || !sameKernel(got, want) {
			t.op(fmt.Errorf("store_io: partial load of %s differs from the encoded kernel", name))
		} else {
			t.op(nil)
		}
	}
	return t
}

func (s *storeIO) work(passOut) (work, error) {
	t, err := suiteThreadInstrs(s.c)
	return work{
		threadInstrs: t,
		evalOps:      float64(s.dec.NumOps()) * fig3Fig5Designs,
		simNote:      "not simulated here: the thread instructions of the stored suite",
		evalNote:     "not scored here: the Fig 5 + Fig 3 volume the loaded store feeds",
	}, err
}

func (s *storeIO) close() { os.Remove(s.path) }

// sameDecoded reports whether two decoded sets hold the same stamp,
// kernel order and columns.
func sameDecoded(a, b *trace.Decoded) bool {
	if a.Scale != b.Scale || a.NumSMs != b.NumSMs || a.Seed != b.Seed ||
		!slices.Equal(a.Names(), b.Names()) {
		return false
	}
	for _, name := range a.Names() {
		ka, _ := a.Kernel(name)
		kb, _ := b.Kernel(name)
		if !sameKernel(ka, kb) {
			return false
		}
	}
	return true
}

// sameKernel compares every column of two decoded kernels.
func sameKernel(a, b *trace.DecodedKernel) bool {
	return slices.Equal(a.Kind, b.Kind) && slices.Equal(a.PC, b.PC) &&
		slices.Equal(a.GtidBase, b.GtidBase) && slices.Equal(a.Active, b.Active) &&
		slices.Equal(a.Cin, b.Cin) && slices.Equal(a.Off, b.Off) &&
		slices.Equal(a.EA, b.EA) && slices.Equal(a.EB, b.EB) &&
		slices.Equal(a.Sum, b.Sum) && slices.Equal(a.Carries, b.Carries)
}
