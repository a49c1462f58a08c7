package experiments

import (
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
	"st2gpu/internal/trace"
)

// These tests pin the record-once/replay-many contract at the driver
// level: the rows the sweep grid computes from the decoded recorded
// suite must equal the rows folded from the streaming meters — fed by
// replaying each recording, and fed live by a tracer on a fresh
// simulation of the suite — for the full suite at scale 1.

// suiteMeters are the streaming meters of one kernel. They compose Peek
// per design instead of hoisting it, so they are an independent oracle
// for the batch kernels behind the sweep grid.
type suiteMeters struct {
	dm *trace.DSEMeter
	cm *trace.CorrMeter
	am *trace.ApproxMeter
}

func newSuiteMeters() (suiteMeters, error) {
	dm, err := trace.NewDSEMeter(speculate.DesignSpace)
	if err != nil {
		return suiteMeters{}, err
	}
	cm, err := trace.NewCorrMeter()
	if err != nil {
		return suiteMeters{}, err
	}
	am, err := trace.NewApproxMeter(approxDesigns)
	if err != nil {
		return suiteMeters{}, err
	}
	return suiteMeters{dm, cm, am}, nil
}

func (m suiteMeters) tracer() gpusim.AddTracer { return trace.Multi{m.dm, m.cm, m.am} }

// meterRows folds per-kernel meters, in suite order, into the Fig 5,
// Fig 3 and approximate-adder rows.
func meterRows(t *testing.T, meters []suiteMeters) ([]Fig5Row, []Fig3Row, []ApproxRow) {
	t.Helper()
	designs := speculate.DesignSpace
	names := kernels.Names()
	miss := make([][]float64, len(designs)) // [design][kernel]
	var fig3 []Fig3Row
	var agg [3]stats.Rate
	wrongSum := make([]float64, len(approxDesigns))
	relErrSum := make([]float64, len(approxDesigns))
	for i, name := range names {
		m := meters[i]
		for j, d := range designs {
			r, err := m.dm.MissRate(d)
			if err != nil {
				t.Fatal(err)
			}
			miss[j] = append(miss[j], r)
		}
		row := Fig3Row{Kernel: name}
		for j, d := range trace.Fig3Designs {
			r, err := m.cm.RawRate(d)
			if err != nil {
				t.Fatal(err)
			}
			row.Rates[j], row.Samples[j] = r.Value(), r.Total
			agg[j].Merge(r)
		}
		fig3 = append(fig3, row)
		for j, d := range approxDesigns {
			wr, err := m.am.WrongRate(d)
			if err != nil {
				t.Fatal(err)
			}
			re, err := m.am.MeanRelError(d)
			if err != nil {
				t.Fatal(err)
			}
			wrongSum[j] += wr
			relErrSum[j] += re
		}
	}
	f5 := make([]Fig5Row, len(designs))
	for j, d := range designs {
		f5[j] = Fig5Row{Design: d, MissRate: stats.Mean(miss[j])}
	}
	avg := Fig3Row{Kernel: "Average"}
	for j := range agg {
		avg.Rates[j], avg.Samples[j] = agg[j].Value(), agg[j].Total
	}
	f3 := append(fig3, avg)
	nk := float64(len(names))
	approx := make([]ApproxRow, len(approxDesigns))
	for j, d := range approxDesigns {
		approx[j] = ApproxRow{Design: d, WrongResults: wrongSum[j] / nk, MeanRelError: relErrSum[j] / nk}
	}
	return f5, f3, approx
}

// liveMetersState caches the live-tracer run of the suite across the
// package's tests.
var liveMetersState struct {
	once   sync.Once
	meters []suiteMeters
	err    error
}

// liveSuiteMeters simulates the suite under Default() once per test
// binary with the meters installed as a live tracer — no recording in
// the loop — and returns them in suite order.
func liveSuiteMeters(t *testing.T) []suiteMeters {
	t.Helper()
	s := &liveMetersState
	s.once.Do(func() {
		cfg := Default()
		meters := make([]suiteMeters, len(kernels.Suite()))
		s.err = cfg.forEachKernel(func(i int, w kernels.Workload) error {
			m, err := newSuiteMeters()
			if err != nil {
				return err
			}
			spec, err := w.Build(cfg.Scale)
			if err != nil {
				return err
			}
			if _, _, err := cfg.runSpec(spec, gpusim.BaselineAdders, m.tracer()); err != nil {
				return err
			}
			meters[i] = m
			return nil
		})
		s.meters = meters
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.meters
}

// TestSuiteRowsMatchMeterReplay is the suite-level oracle of every
// predictor-only figure: each recording of the recorded suite is
// replayed through the streaming meters, the per-kernel results are
// folded here in suite order, and the rows must deep-equal what the
// sweep grid computes from the decoded set.
func TestSuiteRowsMatchMeterReplay(t *testing.T) {
	cfg := Default()
	suite := suiteStore(t)
	var meters []suiteMeters
	for _, name := range kernels.Names() {
		rec, ok := suite.set.Get(name)
		if !ok {
			t.Fatalf("recorded suite is missing kernel %q", name)
		}
		m, err := newSuiteMeters()
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.Replay(rec, m.dm, m.cm, m.am); err != nil {
			t.Fatal(err)
		}
		meters = append(meters, m)
	}
	wantF5, wantF3, wantApprox := meterRows(t, meters)

	f5, err := Fig5FromDecoded(cfg, suite.dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f5, wantF5) {
		t.Errorf("Fig5 grid rows differ from meter replay:\n got %+v\nwant %+v", f5, wantF5)
	}
	f3, err := Fig3FromDecoded(cfg, suite.dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f3, wantF3) {
		t.Errorf("Fig3 grid rows differ from meter replay:\n got %+v\nwant %+v", f3, wantF3)
	}
	ax, err := approxFromDecoded(cfg, suite.dec, approxDesigns)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ax, wantApprox) {
		t.Errorf("approximate-adder grid rows differ from meter replay:\n got %+v\nwant %+v", ax, wantApprox)
	}
}

func TestFig3ReplayMatchesLive(t *testing.T) {
	_, live, _ := meterRows(t, liveSuiteMeters(t))
	replayed, err := Fig3FromDecoded(Default(), suiteStore(t).dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("Fig3 replay rows differ from live-tracer rows:\n got %+v\nwant %+v", replayed, live)
	}
}

func TestFig5ReplayMatchesLive(t *testing.T) {
	live, _, _ := meterRows(t, liveSuiteMeters(t))
	replayed, err := Fig5FromDecoded(Default(), suiteStore(t).dec, nil) // full 12-design space
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("Fig5 replay rows differ from live-tracer rows:\n got %+v\nwant %+v", replayed, live)
	}
}

func TestApproximateAdderStudyReplayMatchesLive(t *testing.T) {
	_, _, live := meterRows(t, liveSuiteMeters(t))
	replayed, err := approxFromDecoded(Default(), suiteStore(t).dec, approxDesigns)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("approximate-adder replay rows differ from live-tracer rows:\n got %+v\nwant %+v", replayed, live)
	}
}

// TestSweepFromSetFile pins the reuse-a-capture path: the recorded
// suite survives a round trip through the set file format, decodes to
// the same rows, and refuses to answer for a configuration it was not
// captured under.
func TestSweepFromSetFile(t *testing.T) {
	cfg := Default()
	suite := suiteStore(t)
	if got := len(suite.set.Names()); got != len(kernels.Suite()) {
		t.Fatalf("RecordSuite captured %d kernels, want %d", got, len(kernels.Suite()))
	}
	path := filepath.Join(t.TempDir(), "suite.st2rec")
	if err := suite.set.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadSetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := trace.DecodeSet(loaded)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Fig5FromDecoded(cfg, suite.dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Fig5FromDecoded(cfg, dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("Fig5 rows from a set-file round trip differ from the in-memory capture")
	}
	want3, err := Fig3FromDecoded(cfg, suite.dec)
	if err != nil {
		t.Fatal(err)
	}
	got3, err := Fig3FromDecoded(cfg, dec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3, want3) {
		t.Error("Fig3 rows from a set-file round trip differ from the in-memory capture")
	}

	// A set captured under one configuration must refuse to answer for
	// another: replaying it would silently produce wrong-config rates.
	bad := cfg
	bad.Scale = cfg.Scale + 1
	if _, err := Fig5FromDecoded(bad, dec, nil); err == nil {
		t.Error("Fig5FromDecoded accepted a set recorded at a different scale")
	}
	bad = cfg
	bad.NumSMs = cfg.NumSMs + 1
	if _, err := Fig3FromDecoded(bad, dec); err == nil {
		t.Error("Fig3FromDecoded accepted a set recorded with a different SM count")
	}
}

func TestFig2ReplayMatchesLive(t *testing.T) {
	cfg := Default()
	const gtid, maxPts = 37, 30

	// Live reference: the value trace observes the sequential launch.
	spec, err := kernels.Pathfinder(cfg.Scale)
	if err != nil {
		t.Fatal(err)
	}
	vt := trace.NewValueTrace(gtid, maxPts)
	if _, _, err := cfg.runSpec(spec, gpusim.BaselineAdders, vt); err != nil {
		t.Fatal(err)
	}
	live := make([]Fig2Series, 0, 8)
	for _, pc := range vt.PCs() {
		live = append(live, Fig2Series{PC: pc, Points: vt.Series(pc)})
	}

	replayed, err := Fig2(cfg, gtid, maxPts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Error("Fig2 replay series differ from live-tracer series")
	}
}

func TestRecordSuiteHonorsByteCap(t *testing.T) {
	cfg := Default()
	cfg.RecordMaxBytes = 256
	_, err := RecordSuite(cfg)
	if err == nil {
		t.Fatal("RecordSuite succeeded despite a 256-byte recording cap")
	}
	if !strings.Contains(err.Error(), "cap") {
		t.Errorf("cap error %q does not mention the cap", err)
	}
}
