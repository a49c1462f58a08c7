// Command perfbench is the repository's end-to-end benchmark. Each named
// workload is a closed loop of back-to-back passes over the public
// functions of kernels, gpusim, power, trace and experiments, run in
// this one process. It checks every pass's outputs, counts failed
// operations against attempted ones, and prints every metric by name and
// unit; the last line of standard output is one JSON object.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload suite_sim --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// is the layer profile: it records spans around every layer call and
// reports each layer's self time. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"st2gpu/internal/obs"
	"st2gpu/internal/speculate"
	"st2gpu/internal/trace"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// minPasses is the fewest timed passes a run makes, whatever
	// --seconds says.
	minPasses = 5
	// minTracedPasses is the fewest traced passes, and untraced passes,
	// the layer profile makes of each workload.
	minTracedPasses = 3
	// scale and sms are the model size every workload runs at: scale 2
	// makes a suite_sim pass long enough that simulation, not noise,
	// sets its time.
	scale, sms = 2, 2
	// outDir receives run records and Chrome traces, beside the build.
	outDir = ".bench_build/runs"
	// runSeconds is the measuring time BENCHMARK.json asks for.
	runSeconds = 15
)

// metricDef declares one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the pipeline sees; every workload
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.24},
	{"sim_thread_instrs_per_s", "1/s", "higher", 0.24},
	{"eval_ops_per_s", "1/s", "higher", 0.24},
}

// layerDef is a per-layer metric, the workload it is measured on, and,
// for a self-time metric, the span whose self time it sums.
type layerDef struct {
	metricDef
	workload string
	span     string
}

func layerMetrics() []layerDef {
	l := func(name, unit, better, workload string) layerDef {
		return layerDef{metricDef{Name: name, Unit: unit, Better: better}, workload, ""}
	}
	self := func(name, span, workload string) layerDef {
		return layerDef{metricDef{Name: name, Unit: "s", Better: "lower"}, workload, span}
	}
	ls := []layerDef{
		self("kernels.build_s", "kernels.build", "suite_sim"),
		self("kernels.setup_s", "kernels.setup", "suite_sim"),
		self("kernels.verify_s", "kernels.verify", "suite_sim"),
		self("gpusim.new_s", "gpusim.new", "suite_sim"),
		self("gpusim.launch_s.baseline", "gpusim.launch.baseline", "suite_sim"),
		self("gpusim.launch_s.st2", "gpusim.launch.st2", "suite_sim"),
		l("gpusim.host_ns_per_thread_instr", "ns", "lower", "suite_sim"),
		self("power.from_run_s", "power.from_run", "suite_sim"),
		l("gpusim.thread_instrs", "count", "lower", "suite_sim"),
		l("gpusim.sim_cycles", "count", "lower", "suite_sim"),
		l("gpusim.mispredict_rate", "ratio", "lower", "suite_sim"),
		l("gpusim.recompute_per_mispredict", "slices", "lower", "suite_sim"),
		l("gpusim.crf_conflicts", "count", "lower", "suite_sim"),
		l("gpusim.l1_hit_rate", "ratio", "higher", "suite_sim"),
		l("gpusim.dram_accesses", "count", "lower", "suite_sim"),
		l("gpusim.st2_stall_cycles", "count", "lower", "suite_sim"),
		self("experiments.record_suite_s", "experiments.record_suite", "cold_study"),
		l("gpusim.recorded_records", "count", "lower", "cold_study"),
		l("gpusim.record_bytes", "B", "lower", "cold_study"),
		self("trace.decode_s", "trace.decode", "cold_study"),
		l("trace.decode_records_per_s", "1/s", "higher", "cold_study"),
		self("trace.store_encode_s", "trace.store_encode", "store_io"),
		self("trace.store_open_s", "trace.store_open", "store_io"),
		self("trace.store_load_s", "trace.store_load", "store_io"),
		self("trace.store_partial_load_s", "trace.store_partial_load", "store_io"),
		l("trace.store_bytes", "B", "lower", "store_io"),
		l("trace.store_bytes_per_lane", "B/lane", "lower", "store_io"),
		self("experiments.fig5_s", "experiments.fig5", "dse_sweep"),
		self("experiments.fig3_s", "experiments.fig3", "dse_sweep"),
		l("experiments.grid_efficiency", "ratio", "higher", "dse_sweep"),
		l("trace.eval_miss_ns_per_lane_design", "ns", "lower", "dse_sweep"),
		l("trace.eval_corr_ns_per_lane_design", "ns", "lower", "dse_sweep"),
	}
	for _, d := range speculate.DesignSpace {
		ls = append(ls, l(designMetric(d), "ns/lane", "lower", "dse_sweep"))
	}
	for _, d := range trace.Fig3Designs {
		ls = append(ls, l(designMetric(d), "ns/lane", "lower", "dse_sweep"))
	}
	return append(ls, l("bench.trace_overhead", "ratio", "lower", ""))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full account of one run, written beside the build
// output: the result plus what it was measured on and every sample.
type record struct {
	Meta    map[string]any       `json:"meta"`
	Result  result               `json:"result"`
	Samples map[string][]float64 `json:"samples_s"`
	Counts  map[string]float64   `json:"modelled_counts"`
	// PeakRSSMB is the process's VmHWM at the end of an untraced run.
	// It is not a bounded metric: it moves with GC timing.
	PeakRSSMB float64 `json:"peak_rss_mb,omitempty"`
	// StealShare is the share of the machine's CPU time the hypervisor
	// took during the timed passes.
	StealShare float64  `json:"host_steal_share"`
	Errors     []string `json:"errors,omitempty"`
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: suite_sim, dse_sweep, cold_study or store_io")
	seed := fs.Int64("seed", 1, "workload seed (gpusim.Config.Seed and the set/store stamp)")
	seconds := fs.Float64("seconds", runSeconds, "how long the timed passes run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: layer profile")
	writeExp := fs.String("write-expected", "", "write the expected-output file for this configuration to `path` and exit")
	printSpec := fs.Bool("benchmark-json", false, "print the BENCHMARK.json this benchmark implements and exit")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *printSpec {
		return printBenchmarkJSON()
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	c := config{scale: scale, sms: sms, seed: *seed, tmpDir: tmp}

	if *writeExp != "" {
		if err := writeExpected(*writeExp, c); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := lookup(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	stdout := bufio.NewWriter(os.Stdout)
	defer stdout.Flush()
	rec := &record{Meta: meta(c, w.name, *traced), Samples: map[string][]float64{}}
	printMeta(stdout, rec.Meta)
	if ef, err := loadExpected(); err != nil || !ef.covers(c) {
		fmt.Fprintln(stdout, "  note: expected.json does not cover this configuration; only the seed-independent checks run")
	}
	var ops tally
	if *traced == 0 {
		ops, err = measure(stdout, w, c, *seconds, rec)
	} else {
		ops, err = profile(stdout, w, c, *seconds, rec, filepath.Join(outDir,
			fmt.Sprintf("%s-seed%d.trace.json", w.name, c.seed)))
	}
	if err != nil {
		stdout.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec.Result.Attempted, rec.Result.Failed = ops.attempted, ops.failed
	rec.Result.Correct = ops.failed == 0 && ops.attempted > 0
	rec.Errors = ops.errs
	fmt.Fprintf(stdout, "operations: %d attempted, %d failed\n", ops.attempted, ops.failed)
	for _, e := range ops.errs {
		fmt.Fprintln(stdout, "  failed:", e)
	}
	printMetrics(stdout, rec.Result.Metrics)
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, c.seed, *traced))
	if err := writeJSON(path, rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing run record:", err)
	} else {
		fmt.Fprintln(stdout, "run record:", path)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// setupOnce sets a workload up and runs its untimed warm-up pass.
func setupOnce(w workloadDef, c config) (runner, passOut, error) {
	r, err := w.setup(c)
	if err != nil {
		return nil, passOut{}, fmt.Errorf("%s setup: %w", w.name, err)
	}
	return r, r.pass(nil), nil
}

// checker compares passes against the expected file (when it covers
// this configuration) and against the warm-up pass, then runs the
// workload's own cross-checks.
type checker struct {
	name     string
	r        runner
	expected map[string]json.RawMessage
	warm     map[string]json.RawMessage
}

func newChecker(name string, c config, r runner, warm passOut) (*checker, tally, error) {
	var t tally
	exp, err := expectedFor(name, c)
	if err != nil {
		return nil, t, err
	}
	w, err := warm.fp.canon()
	if err != nil {
		return nil, t, err
	}
	ck := &checker{name: name, r: r, expected: exp, warm: w}
	if exp != nil {
		t.add(compareGroups(name+" vs expected.json", warm.fp, exp))
	}
	t.add(r.check(warm))
	return ck, t, nil
}

func (ck *checker) check(out passOut) tally {
	var t tally
	t.add(out.ops)
	if ck.expected != nil {
		t.add(compareGroups(ck.name+" vs expected.json", out.fp, ck.expected))
	}
	t.add(compareGroups(ck.name+" vs warm-up pass", out.fp, ck.warm))
	t.add(ck.r.check(out))
	return t
}

// measure is the untraced run: set up setupReps times, then time
// back-to-back passes for the given seconds.
func measure(w io.Writer, wd workloadDef, c config, seconds float64, rec *record) (tally, error) {
	var ops tally
	var r runner
	var warm passOut
	var setups, setupWalls []float64
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
			r = nil
		}
		runtime.GC()
		sw := startWatch()
		var err error
		r, warm, err = setupOnce(wd, c)
		if err != nil {
			return ops, err
		}
		s, wall := sw.seconds()
		setups, setupWalls = append(setups, s), append(setupWalls, wall)
		ops.add(warm.ops)
	}
	defer r.close()
	ck, t, err := newChecker(wd.name, c, r, warm)
	if err != nil {
		return ops, err
	}
	ops.add(t)
	wk, err := r.work(warm)
	if err != nil {
		return ops, fmt.Errorf("%s work counts: %w", wd.name, err)
	}
	var passes, passWalls []float64
	all := startWatch()
	for len(passes) < minPasses || time.Since(all.t0).Seconds() < seconds {
		runtime.GC()
		sw := startWatch()
		out := r.pass(nil)
		p, wall := sw.seconds()
		passes, passWalls = append(passes, p), append(passWalls, wall)
		ops.add(ck.check(out))
	}
	_, wall := all.seconds()
	rec.StealShare = (stealSeconds() - all.steal) / (wall * float64(runtime.NumCPU()))
	pass := median(passes)
	rec.Samples["setup"] = setups
	rec.Samples["setup_wall"] = setupWalls
	rec.Samples["pass"] = passes
	rec.Samples["pass_wall"] = passWalls
	rec.Counts = warm.counts
	rec.Result.Metrics = map[string]metric{
		"setup_s":                 {median(setups), "s"},
		"pass_s":                  {pass, "s"},
		"sim_thread_instrs_per_s": {wk.threadInstrs / pass, "1/s"},
		"eval_ops_per_s":          {wk.evalOps / pass, "1/s"},
	}
	fmt.Fprintf(w, "setup: %d runs, median %.4f s %s\n", len(setups), median(setups), fmtSamples(setups))
	fmt.Fprintf(w, "passes: %d, median %.4f s, %s; raw wall median %.4f s\n",
		len(passes), pass, tail(passes), median(passWalls))
	fmt.Fprintf(w, "sim_thread_instrs_per_s: %.0f thread instrs per pass, %s\n", wk.threadInstrs, wk.simNote)
	fmt.Fprintf(w, "eval_ops_per_s: %.0f eval ops per pass, %s\n", wk.evalOps, wk.evalNote)
	rec.PeakRSSMB = peakRSSMB()
	fmt.Fprintf(w, "peak RSS (VmHWM): %.1f MB; informational, it moves with GC timing\n", rec.PeakRSSMB)
	fmt.Fprintf(w, "hypervisor steal during the timed passes: %.1f%% of the machine's CPU time, taken out of the times above\n",
		100*rec.StealShare)
	printCounts(w, warm.counts)
	for _, n := range warm.notes {
		fmt.Fprintln(w, n)
	}
	return ops, nil
}

// profile is the traced run. Every per-layer metric is measured on the
// workload it belongs to, so the profile sets up each workload in turn
// and alternates untraced and traced passes on it. The named workload
// runs for the given seconds and gives the reported tracing overhead.
func profile(w io.Writer, wd workloadDef, c config, seconds float64, rec *record, tracePath string) (tally, error) {
	var ops tally
	tr := obs.New()
	vals := map[string]float64{}
	rec.Counts = map[string]float64{}
	for _, x := range workloads {
		t, err := profileWorkload(w, x, x.name == wd.name, c, seconds, tr, vals, rec)
		ops.add(t)
		if err != nil {
			return ops, err
		}
	}
	rec.Result.Metrics = map[string]metric{}
	for _, d := range layerMetrics() {
		v, ok := vals[d.Name]
		if !ok {
			return ops, fmt.Errorf("layer profile produced no value for %s", d.Name)
		}
		rec.Result.Metrics[d.Name] = metric{v, d.Unit}
	}
	if err := tr.WriteChromeTraceFile(tracePath); err != nil {
		return ops, err
	}
	fmt.Fprintln(w, "chrome trace:", tracePath)
	return ops, nil
}

// profileWorkload sets one workload up, alternates untraced and traced
// passes, prints its self-time table, and stores the values of the
// per-layer metrics measured on it in vals. Per-layer times are medians
// over traced passes of summed self time.
func profileWorkload(w io.Writer, x workloadDef, named bool, c config, seconds float64,
	tr *obs.Tracer, vals map[string]float64, rec *record) (tally, error) {
	var ops tally
	r, warm, err := setupOnce(x, c)
	if err != nil {
		return ops, err
	}
	defer r.close()
	ops.add(warm.ops)
	ck, t, err := newChecker(x.name, c, r, warm)
	if err != nil {
		return ops, err
	}
	ops.add(t)
	var plain, traced []float64
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(traced) >= minTracedPasses
		if named {
			enough = enough && time.Since(start).Seconds() >= seconds
		}
		if enough && i%2 == 0 {
			break
		}
		runtime.GC()
		var root *obs.ActiveSpan
		if i%2 == 1 {
			root = tr.Begin(spanPass, obs.Str("workload", x.name), obs.Int("pass", int64(tr.Len())))
		}
		sw := startWatch()
		out := r.pass(root)
		root.End()
		d, _ := sw.seconds()
		if root == nil {
			plain = append(plain, d)
		} else {
			traced = append(traced, d)
		}
		ops.add(ck.check(out))
	}
	var mine []passSelf
	for _, p := range selfTimes(tr.Spans()) {
		if p.workload == x.name {
			mine = append(mine, p)
		}
	}
	lm, total := layerMedians(mine)
	overhead := median(traced) / median(plain)
	fmt.Fprintf(w, "%s: %d untraced passes median %.4f s, %d traced median %.4f s, tracing overhead %.4f\n",
		x.name, len(plain), median(plain), len(traced), median(traced), overhead)
	writeSelfTable(w, x.name, len(mine), lm, total)
	rec.Samples[x.name+".untraced"] = plain
	rec.Samples[x.name+".traced"] = traced
	for k, v := range warm.counts {
		vals[k] = v
		rec.Counts[k] = v
	}
	for _, d := range layerMetrics() {
		if d.span != "" && d.workload == x.name {
			vals[d.Name] = lm[d.span]
		}
	}
	if named {
		vals["bench.trace_overhead"] = overhead
	}
	switch x.name {
	case "suite_sim":
		launch := lm["gpusim.launch.baseline"] + lm["gpusim.launch.st2"]
		vals["gpusim.host_ns_per_thread_instr"] = 1e9 * launch / warm.counts["gpusim.thread_instrs"]
		for _, n := range warm.notes {
			fmt.Fprintln(w, n)
		}
	case "cold_study":
		vals["trace.decode_records_per_s"] = warm.counts["gpusim.recorded_records"] / lm["trace.decode"]
	case "dse_sweep":
		ec, t, err := r.(*dseSweep).evalCost(w)
		ops.add(t)
		if err != nil {
			return ops, fmt.Errorf("per-predictor cost: %w", err)
		}
		for k, v := range ec {
			vals[k] = v
		}
	}
	return ops, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail reports the highest percentile with at least ten samples beyond
// it, or says there is none.
func tail(xs []float64) string {
	n := len(xs)
	if n < 11 {
		return fmt.Sprintf("max %.4f s (%d samples: no percentile has 10 beyond it)", slices.Max(xs), n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return fmt.Sprintf("p%.1f %.4f s (%d samples, 10 beyond it)", 100*float64(n-10)/float64(n), s[n-11], n)
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stopwatch measures host seconds net of hypervisor steal. On a shared
// host the hypervisor takes this machine's CPUs away for a share of the
// time that changes from minute to minute: between runs of the same code
// it moved from ~1% to ~25%, and raw wall time moved with it by up to
// 40%. Steal accrues only while a CPU has work to run, so when this
// process is all that runs, the process ran for cpu of the cpu + stolen
// seconds it was ready to run. A stopwatch scales the wall time by that
// share: the time the same work takes without steal.
type stopwatch struct {
	t0         time.Time
	cpu, steal float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds(), stealSeconds()} }

// seconds returns the seconds since start net of steal, and raw.
func (sw stopwatch) seconds() (net, wall float64) {
	wall = time.Since(sw.t0).Seconds()
	cpu, stolen := cpuSeconds()-sw.cpu, stealSeconds()-sw.steal
	if cpu <= 0 || stolen <= 0 {
		return wall, wall
	}
	return wall * cpu / (cpu + stolen), wall
}

// cpuSeconds returns the user plus system CPU time of this process.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds returns the CPU time the hypervisor has taken from this
// machine, summed over CPUs, from the steal column of /proc/stat (0
// where it is not available).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100 // USER_HZ
}

// meta is stored with every run record.
func meta(c config, workload string, traced int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"trace":      traced,
		"seed":       c.seed,
		"scale":      c.scale,
		"sms":        c.sms,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"caveats": []string{
			"every launch starts with empty modelled caches (a fresh gpusim.New per launch)",
			"an untimed warm-up pass after each setup warms host caches",
			"the seed reaches only gpusim.Config.Seed (CRF initial state) and the set/store stamp; kernel inputs are fixed by the kernels rng tags",
			"the model is not validated against hardware",
		},
	}
}

func printMeta(w io.Writer, m map[string]any) {
	fmt.Fprintf(w, "perfbench %s seed=%v scale=%v sms=%v trace=%v nproc=%v GOMAXPROCS=%v %v commit=%v\n",
		m["workload"], m["seed"], m["scale"], m["sms"], m["trace"], m["nproc"], m["gomaxprocs"], m["go"], m["commit"])
	for _, c := range m["caveats"].([]string) {
		fmt.Fprintln(w, "  note:", c)
	}
}

func printCounts(w io.Writer, counts map[string]float64) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "modelled %s = %s\n", k, strconv.FormatFloat(counts[k], 'g', -1, 64))
	}
}

func printMetrics(w io.Writer, m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%-40s %16s %s\n", k, strconv.FormatFloat(m[k].Value, 'g', 8, 64), m[k].Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printBenchmarkJSON prints the BENCHMARK.json this program implements,
// so the committed file can be checked against the code.
func printBenchmarkJSON() int {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{Command: []string{"bash", "perfbench/run.sh"}, Paths: []string{"perfbench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	spec.EndToEnd = endToEnd
	for _, l := range layerMetrics() {
		spec.PerLayer = append(spec.PerLayer, l.metricDef)
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
