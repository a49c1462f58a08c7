package trace

import (
	"reflect"
	"strings"
	"testing"

	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// recordPathfinder captures a real pathfinder run into a one-kernel Set.
func recordPathfinder(t testing.TB) *Set {
	t.Helper()
	spec, err := kernels.Pathfinder(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 2
	cfg.AdderMode = gpusim.BaselineAdders
	cfg.Seed = 1
	d, err := gpusim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Setup(d.Memory()); err != nil {
		t.Fatal(err)
	}
	rec := gpusim.NewRecorder(0)
	d.SetRecorder(rec)
	if _, err := d.Launch(spec.Kernel); err != nil {
		t.Fatal(err)
	}
	set := NewSet(1, 2, 1)
	set.Add("pathfinder", rec.Recording())
	return set
}

// captureTracer stores the full delivered stream for deep comparison.
type captureTracer struct {
	kinds []core.UnitKind
	pcs   []uint32
	bases []uint32
	ops   [][32]gpusim.WarpAddOp
}

func (c *captureTracer) TraceWarpAdds(kind core.UnitKind, pc, base uint32, ops *[32]gpusim.WarpAddOp) {
	c.kinds = append(c.kinds, kind)
	c.pcs = append(c.pcs, pc)
	c.bases = append(c.bases, base)
	c.ops = append(c.ops, *ops)
}

// TestDecodedEvalMatchesMeterReplay pins the decoded form against the
// streaming meters' compaction of the dense tracer records: both feed
// the same per-metric eval step, so for every evaluation mode each
// design's result from one batch mixing Peek and non-Peek designs must
// be bit-identical to replaying the recording through the matching
// meter, for a real kernel stream.
func TestDecodedEvalMatchesMeterReplay(t *testing.T) {
	set := recordPathfinder(t)
	dec, err := DecodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := set.Get("pathfinder")
	k, ok := dec.Kernel("pathfinder")
	if !ok {
		t.Fatal("decoded set lost the kernel")
	}
	if k.NumRecords() != int(rec.NumOps()) {
		t.Fatalf("decoded %d records, recording holds %d", k.NumRecords(), rec.NumOps())
	}

	designs := append(append([]string{}, speculate.DesignSpace...), "oracle")
	meter, err := NewDSEMeter(designs)
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(rec, meter); err != nil {
		t.Fatal(err)
	}
	matchesMeter(t, "EvalMissBatch", designs, k.EvalMissBatch, func(d string) stats.Rate {
		r, _ := meter.Rate(d)
		return r
	})

	cm, err := NewCorrMeter()
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(rec, cm); err != nil {
		t.Fatal(err)
	}
	matchesMeter(t, "EvalCorrBatch", Fig3Designs[:], k.EvalCorrBatch, func(d string) stats.Rate {
		r, _ := cm.RawRate(d)
		return r
	})

	approxDesigns := []string{"staticZero", "CASA", speculate.FinalDesign}
	am, err := NewApproxMeter(approxDesigns)
	if err != nil {
		t.Fatal(err)
	}
	if err := Replay(rec, am); err != nil {
		t.Fatal(err)
	}
	matchesMeter(t, "EvalApproxBatch", approxDesigns, k.EvalApproxBatch, func(d string) ApproxResult {
		r, _ := am.result(d)
		return r
	})
}

// matchesMeter requires every design's result from one batch of all
// designs to equal the meter replay's.
func matchesMeter[R comparable](t *testing.T, name string, designs []string,
	eval func([]string) ([]R, error), want func(design string) R) {
	t.Helper()
	all, err := eval(designs)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range designs {
		if w := want(d); all[i] != w {
			t.Errorf("%s(%q): batch %+v, meter replay %+v", name, d, all[i], w)
		}
	}
}

// TestDecodedReplayMatchesRecordingReplay: the decoded form reconstructs
// the exact legacy tracer stream.
func TestDecodedReplayMatchesRecordingReplay(t *testing.T) {
	set := recordPathfinder(t)
	dec, err := DecodeSet(set)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := set.Get("pathfinder")
	k, _ := dec.Kernel("pathfinder")

	var fromRec, fromDec captureTracer
	if err := rec.Replay(&fromRec); err != nil {
		t.Fatal(err)
	}
	k.Replay(&fromDec)
	if !reflect.DeepEqual(fromRec, fromDec) {
		t.Fatal("decoded replay stream differs from recording replay stream")
	}
	if dec.NumOps() != rec.NumOps() {
		t.Errorf("NumOps = %d, want %d", dec.NumOps(), rec.NumOps())
	}
	if dec.NumLanes() == 0 || int(dec.NumLanes()) != k.NumLanes() {
		t.Errorf("NumLanes = %d, kernel holds %d", dec.NumLanes(), k.NumLanes())
	}
}

// TestMatchesArms covers every mismatch arm of Set.Matches (and the
// Decoded mirror): each error must name both the captured and the
// requested value, and the kernel-list check must name the missing
// kernel.
func TestMatchesArms(t *testing.T) {
	s := NewSet(2, 4, 7)
	s.Add("pathfinder", &gpusim.Recording{})
	if err := s.Matches(2, 4, 7); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	cases := []struct {
		name                string
		scale, sms          int
		seed                int64
		wantField, wantVals string
	}{
		{"scale", 3, 4, 7, "scale mismatch", "captured scale=2, replay requested scale=3"},
		{"sms", 2, 8, 7, "SM-count mismatch", "captured sms=4, replay requested sms=8"},
		{"seed", 2, 4, 9, "seed mismatch", "captured seed=7, replay requested seed=9"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := s.Matches(c.scale, c.sms, c.seed)
			if err == nil {
				t.Fatal("mismatch accepted")
			}
			if !strings.Contains(err.Error(), c.wantField) || !strings.Contains(err.Error(), c.wantVals) {
				t.Errorf("error %q should contain %q and %q", err, c.wantField, c.wantVals)
			}
		})
	}
	// Kernel-list arm: present kernels pass, missing kernels are named.
	if err := s.MatchesKernels([]string{"pathfinder"}); err != nil {
		t.Errorf("present kernel rejected: %v", err)
	}
	err := s.MatchesKernels([]string{"pathfinder", "bfs"})
	if err == nil {
		t.Fatal("missing kernel accepted")
	}
	if !strings.Contains(err.Error(), `"bfs"`) || !strings.Contains(err.Error(), "kernel-list mismatch") {
		t.Errorf("kernel-list error %q should name the missing kernel", err)
	}
	// The decoded form carries the same stamp and the same arm errors.
	dec, err := DecodeSet(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Matches(2, 4, 7); err != nil {
		t.Fatalf("decoded matching config rejected: %v", err)
	}
	if err := dec.Matches(1, 4, 7); err == nil || !strings.Contains(err.Error(), "captured scale=2") {
		t.Errorf("decoded scale arm error = %v", err)
	}
}
