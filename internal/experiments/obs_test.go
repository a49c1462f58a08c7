package experiments

import (
	"reflect"
	"strings"
	"testing"

	"st2gpu/internal/kernels"
	"st2gpu/internal/metrics"
	"st2gpu/internal/obs"
	"st2gpu/internal/trace"
)

// TestObservabilityDoesNotPerturbSweep pins the -trace-out contract at
// the experiment layer: running the record → decode → sweep pipeline
// with the span tracer and a metrics registry installed yields rows
// deep-equal to the bare pipeline, at several SweepWorkers counts. It
// also sanity-checks the artifacts the observability layer is supposed
// to produce: record/decode/sweep spans and the sweep-cell histograms.
func TestObservabilityDoesNotPerturbSweep(t *testing.T) {
	bare := Default()
	dec := suiteStore(t).dec
	baseF5, err := Fig5FromDecoded(bare, dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseF3, err := Fig3FromDecoded(bare, dec)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 3, 8} {
		cfg := Default()
		cfg.SweepWorkers = workers
		cfg.Obs = obs.New()
		cfg.Metrics = metrics.New()

		obsSet, err := RecordSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		obsDec, err := trace.DecodeSetTraced(obsSet, cfg.Obs)
		if err != nil {
			t.Fatal(err)
		}
		f5, err := Fig5FromDecoded(cfg, obsDec, nil)
		if err != nil {
			t.Fatal(err)
		}
		f3, err := Fig3FromDecoded(cfg, obsDec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(baseF5, f5) {
			t.Errorf("workers=%d: Fig5 rows with observability differ from bare rows", workers)
		}
		if !reflect.DeepEqual(baseF3, f3) {
			t.Errorf("workers=%d: Fig3 rows with observability differ from bare rows", workers)
		}

		// The pipeline must actually have produced its spans...
		names := map[string]int{}
		for _, s := range cfg.Obs.Spans() {
			names[s.Name]++
		}
		for _, want := range []string{"experiments.record_suite", "gpusim.launch", "trace.decode_set", "sweep.fig5", "sweep.fig3", "cell"} {
			if names[want] == 0 {
				t.Errorf("workers=%d: no %q span recorded (have %v)", workers, want, names)
			}
		}
		if got, want := names["gpusim.launch"], len(kernels.Suite()); got != want {
			t.Errorf("workers=%d: %d launch spans, want one per suite kernel (%d)", workers, got, want)
		}

		// ... and the sweep-cell metrics.
		snap := cfg.Metrics.Snapshot()
		if v, ok := snap["sweep.cells"].(uint64); !ok || v == 0 {
			t.Errorf("workers=%d: sweep.cells = %v, want > 0", workers, snap["sweep.cells"])
		}
		var found bool
		for name := range snap {
			if strings.HasPrefix(name, "sweep.cell_log2_us") {
				found = true
			}
		}
		if !found {
			t.Errorf("workers=%d: sweep duration histogram missing from registry", workers)
		}
		counts, ok := snap["sweep.cell_log2_us"].([]uint64)
		if !ok {
			t.Fatalf("workers=%d: sweep.cell_log2_us has wrong shape %T", workers, snap["sweep.cell_log2_us"])
		}
		var total uint64
		for _, n := range counts {
			total += n
		}
		if cells := snap["sweep.cells"].(uint64); total != cells {
			t.Errorf("workers=%d: duration histogram total %d != sweep.cells %d", workers, total, cells)
		}
	}
}
