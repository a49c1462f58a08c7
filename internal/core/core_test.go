package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"st2gpu/internal/adder"
	"st2gpu/internal/circuit"
	"st2gpu/internal/speculate"
)

func testParams(t *testing.T) EnergyParams {
	t.Helper()
	p, err := DeriveEnergyParams(circuit.SAED90(), 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestUnitKindStrings(t *testing.T) {
	if ALU.String() != "ALU" || FPU.String() != "FPU" || DPU.String() != "DPU" ||
		ALU32.String() != "ALU32" || UnitKind(9).String() != "UnitKind(9)" {
		t.Error("UnitKind strings wrong")
	}
}

func TestUnitKindGeometry(t *testing.T) {
	cases := []struct {
		k     UnitKind
		width uint
	}{{ALU, 64}, {ALU32, 32}, {FPU, 24}, {DPU, 52}}
	for _, c := range cases {
		cfg, err := c.k.AdderConfig(8)
		if err != nil {
			t.Fatalf("%v: %v", c.k, err)
		}
		if cfg.Width != c.width {
			t.Errorf("%v width = %d, want %d", c.k, cfg.Width, c.width)
		}
	}
	if _, err := UnitKind(9).AdderConfig(8); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestDeriveEnergyParams(t *testing.T) {
	p := testParams(t)
	if p.NumSlices != 8 {
		t.Errorf("slices = %d", p.NumSlices)
	}
	if p.SupplyRatio <= 0.4 || p.SupplyRatio >= 0.8 {
		t.Errorf("supply ratio %.3f outside the paper's ≈0.6 region", p.SupplyRatio)
	}
	// The slice at scaled voltage must be much cheaper than the reference.
	if 8*p.SliceEnergy >= p.RefAdderEnergy {
		t.Errorf("8 slices (%.3g) should cost less than the reference (%.3g)",
			8*p.SliceEnergy, p.RefAdderEnergy)
	}
	if _, err := DeriveEnergyParams(circuit.SAED90(), 0, 8); err == nil {
		t.Error("bad geometry should error")
	}
}

// The headline: at the paper's observed behaviour (9% thread mispredict
// rate, ~2 slices recomputed each), the per-adder saving lands near 70%.
func TestAdderSavingNearPaper(t *testing.T) {
	p := testParams(t)
	saving := p.AdderSavingFraction(1.94, 0.09)
	if saving < 0.55 || saving > 0.92 {
		t.Errorf("adder saving %.3f outside the paper's ≈0.70 neighbourhood", saving)
	}
	// Perfect prediction saves even more.
	perfect := p.AdderSavingFraction(0, 0)
	if perfect <= saving {
		t.Errorf("perfect prediction (%.3f) should beat realistic (%.3f)", perfect, saving)
	}
}

func TestST2WarpEnergyMonotonicity(t *testing.T) {
	p := testParams(t)
	base := p.ST2WarpEnergy(32, 0, 0)
	withRecompute := p.ST2WarpEnergy(32, 10, 5)
	if withRecompute <= base {
		t.Error("recomputation must cost energy")
	}
	if p.BaselineWarpEnergy(32) != 32*p.RefAdderEnergy {
		t.Error("baseline pricing wrong")
	}
}

func newTestUnit(t *testing.T, kind UnitKind) *Unit {
	t.Helper()
	cfg, err := kind.AdderConfig(8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := DeriveEnergyParams(circuit.SAED90(), cfg.Width, 8)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnit(kind, 8, p)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func fullWarp(op adder.Op, f func(l int) (uint64, uint64)) [WarpSize]LaneOp {
	var lanes [WarpSize]LaneOp
	for l := 0; l < WarpSize; l++ {
		a, b := f(l)
		lanes[l] = LaneOp{Active: true, A: a, B: b, Op: op}
	}
	return lanes
}

// Exactness: every lane's result equals the reference for random operands
// under the hardware CRF speculator.
func TestExecuteWarpExact(t *testing.T) {
	u := newTestUnit(t, ALU)
	crf := speculate.NewDefaultCRF(1)
	spec := &CRFSpeculator{CRF: crf, Geom: u.Geometry()}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		op := adder.Add
		if rng.Intn(2) == 1 {
			op = adder.Sub
		}
		lanes := fullWarp(op, func(int) (uint64, uint64) { return rng.Uint64(), rng.Uint64() })
		crf.BeginCycle(uint64(i))
		res := u.ExecuteWarp(spec, uint32(rng.Intn(64)), 0, &lanes)
		for l := 0; l < WarpSize; l++ {
			want := lanes[l].A + lanes[l].B
			if op == adder.Sub {
				want = lanes[l].A - lanes[l].B
			}
			if res.Sums[l] != want {
				t.Fatalf("lane %d: got %#x want %#x", l, res.Sums[l], want)
			}
		}
		if res.ActiveLanes != 32 {
			t.Fatalf("active lanes = %d", res.ActiveLanes)
		}
	}
}

func TestExecuteWarpInactiveLanes(t *testing.T) {
	u := newTestUnit(t, ALU)
	spec := &PredictorSpeculator{P: speculate.NewStaticZero(u.Geometry())}
	var lanes [WarpSize]LaneOp
	lanes[3] = LaneOp{Active: true, A: 5, B: 7, Op: adder.Add}
	res := u.ExecuteWarp(spec, 0, 0, &lanes)
	if res.ActiveLanes != 1 || res.Sums[3] != 12 {
		t.Errorf("partial warp wrong: %+v", res)
	}
	if res.Sums[0] != 0 {
		t.Error("inactive lane produced a value")
	}
	// Fully inactive warp is a no-op.
	var none [WarpSize]LaneOp
	res = u.ExecuteWarp(spec, 0, 0, &none)
	if res.ActiveLanes != 0 || res.Cycles != 0 {
		t.Errorf("empty warp: %+v", res)
	}
}

// Warp-level stall semantics: one mispredicted lane makes the whole warp
// take 2 cycles; zero mispredictions take 1.
func TestWarpStallSemantics(t *testing.T) {
	u := newTestUnit(t, ALU)
	spec := &PredictorSpeculator{P: speculate.NewStaticZero(u.Geometry())}
	// Operands with no boundary carries and MSBs clear: staticZero never
	// wrong → 1 cycle. (Low slice-MSBs avoid carries entirely.)
	clean := fullWarp(adder.Add, func(l int) (uint64, uint64) { return 0x01, 0x02 })
	res := u.ExecuteWarp(spec, 0, 0, &clean)
	if res.Cycles != 1 || res.ThreadMispredicts != 0 {
		t.Fatalf("clean warp: %+v", res)
	}
	// Lane 5 carries into slice 1 (0xFF + 0x01); staticZero is wrong there.
	var lanes [WarpSize]LaneOp
	for l := 0; l < WarpSize; l++ {
		lanes[l] = LaneOp{Active: true, A: 1, B: 2, Op: adder.Add}
	}
	lanes[5] = LaneOp{Active: true, A: 0xFF, B: 0x01, Op: adder.Add}
	res = u.ExecuteWarp(spec, 0, 0, &lanes)
	if res.Cycles != 2 {
		t.Fatalf("one bad lane should stall the warp: %+v", res)
	}
	if res.MispredLanes != 1<<5 || res.ThreadMispredicts != 1 {
		t.Fatalf("mispred accounting: %+v", res)
	}
	st := u.Stats()
	if st.StalledWarpOps != 1 || st.WarpOps != 2 {
		t.Errorf("aggregate: %+v", st)
	}
}

// Peek boundaries are never counted as wrong, and with Peek disabled the
// dynamic boundary count grows.
func TestPeekAccounting(t *testing.T) {
	u := newTestUnit(t, ALU)
	crf := speculate.NewDefaultCRF(3)
	spec := &CRFSpeculator{CRF: crf, Geom: u.Geometry()}
	lanes := fullWarp(adder.Add, func(l int) (uint64, uint64) { return 1, 2 }) // all MSBs clear → all peeked
	res := u.ExecuteWarp(spec, 0, 0, &lanes)
	if res.StaticBoundaries != 32*7 || res.DynamicBoundaries != 0 {
		t.Errorf("all boundaries should be peek-resolved: %+v", res)
	}
	if res.WrongBoundaries != 0 || res.ThreadMispredicts != 0 {
		t.Errorf("peeked boundaries can never be wrong: %+v", res)
	}
	specNoPeek := &CRFSpeculator{CRF: crf, Geom: u.Geometry(), DisablePeek: true}
	res = u.ExecuteWarp(specNoPeek, 0, 0, &lanes)
	if res.StaticBoundaries != 0 || res.DynamicBoundaries != 32*7 {
		t.Errorf("peek disabled: %+v", res)
	}
}

// The CRF speculator learns: repeating the same (PC, operands) pattern
// after a write-back commits eliminates the misprediction.
func TestCRFSpeculatorLearns(t *testing.T) {
	u := newTestUnit(t, ALU)
	crf := speculate.NewDefaultCRF(4)
	spec := &CRFSpeculator{CRF: crf, Geom: u.Geometry()}
	// 0x80 + 0x80 in every lane: slice-0 MSBs are 1&1 → peek resolves
	// boundary 0 to carry 1 — wait, that IS peek. Use operands whose
	// boundary carry exists but MSBs disagree: 0xC0 + 0x40 = 0x100
	// (slice0 MSBs 1,0 → dynamic; carry into slice 1 is 1).
	lanes := fullWarp(adder.Add, func(l int) (uint64, uint64) { return 0xC0, 0x40 })
	crf.BeginCycle(1)
	res := u.ExecuteWarp(spec, 9, 0, &lanes)
	if res.ThreadMispredicts != 32 {
		t.Fatalf("cold CRF should mispredict all lanes, got %d", res.ThreadMispredicts)
	}
	crf.BeginCycle(2) // commit write-back
	res = u.ExecuteWarp(spec, 9, 0, &lanes)
	if res.ThreadMispredicts != 0 {
		t.Fatalf("warm CRF should predict perfectly, got %d mispredicts", res.ThreadMispredicts)
	}
	if res.Cycles != 1 {
		t.Error("warm repeat should be single-cycle")
	}
}

// The hardware warp-add path allocates nothing in steady state: the unit
// owns its effective-operand and carry scratch, the CRF hands out its row
// without a copy, and write-back staging reuses per-row buffers. Two
// warps whose PCs alias one CRF row flip their boundary-0 carry every
// cycle, so both mispredict against the row the last cycle committed,
// every cycle stages two contending write-backs, and BeginCycle commits
// them between calls.
func TestExecuteWarpAllocatesNothing(t *testing.T) {
	u := newTestUnit(t, ALU)
	crf := speculate.NewDefaultCRF(6)
	spec := &CRFSpeculator{CRF: crf, Geom: u.Geometry()}
	// 0xC0+0x40 carries into slice 1, 0x80+0x00 does not; both have
	// disagreeing slice-0 MSBs, so Peek leaves boundary 0 to the CRF.
	carry := fullWarp(adder.Add, func(int) (uint64, uint64) { return 0xC0, 0x40 })
	noCarry := fullWarp(adder.Sub, func(int) (uint64, uint64) { return 0x80, ^uint64(0) })
	noCarry[WarpSize-1].Active = false
	cycle := uint64(0)
	var mispredicts int
	step := func() {
		cycle++
		crf.BeginCycle(cycle)
		lanes := &carry
		if cycle%2 == 0 {
			lanes = &noCarry
		}
		mispredicts += u.ExecuteWarp(spec, 3, 0, lanes).ThreadMispredicts
		mispredicts += u.ExecuteWarp(spec, 3+16, 32, lanes).ThreadMispredicts
	}
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Errorf("ExecuteWarp + BeginCycle allocated %.1f times per step, want 0", allocs)
	}
	if mispredicts == 0 {
		t.Fatal("no lane mispredicted: the write-back path was not exercised")
	}
	if st := crf.Stats(); st.Conflicts == 0 || st.WritesCommitted == 0 {
		t.Fatalf("CRF stats %+v: want contended, committed write-backs", st)
	}
}

// Ltid sharing through the CRF: a second warp (different gtid base, same
// lanes, same PC) benefits from the first warp's training.
func TestCRFSharingAcrossWarps(t *testing.T) {
	u := newTestUnit(t, ALU)
	crf := speculate.NewDefaultCRF(5)
	spec := &CRFSpeculator{CRF: crf, Geom: u.Geometry()}
	lanes := fullWarp(adder.Add, func(l int) (uint64, uint64) { return 0xC0, 0x40 })
	crf.BeginCycle(1)
	_ = u.ExecuteWarp(spec, 3, 0, &lanes) // warp 0 trains
	crf.BeginCycle(2)
	res := u.ExecuteWarp(spec, 3, 32, &lanes) // warp 1, same lanes
	if res.ThreadMispredicts != 0 {
		t.Errorf("second warp should inherit lane history, got %d mispredicts", res.ThreadMispredicts)
	}
}

func TestUnitStatsAggregation(t *testing.T) {
	u := newTestUnit(t, ALU)
	spec := &PredictorSpeculator{P: speculate.NewStaticZero(u.Geometry())}
	lanes := fullWarp(adder.Add, func(l int) (uint64, uint64) { return 0xFF, 0x01 })
	_ = u.ExecuteWarp(spec, 0, 0, &lanes)
	st := u.Stats()
	if st.ThreadOps != 32 || st.ThreadMispredicts != 32 {
		t.Fatalf("stats: %+v", st)
	}
	if st.ThreadMispredictionRate() != 1.0 {
		t.Errorf("rate = %g", st.ThreadMispredictionRate())
	}
	if st.MeanRecomputedSlices() != 7 {
		t.Errorf("mean recomputed = %g, want 7 (error at boundary 0)", st.MeanRecomputedSlices())
	}
	if st.EnergyST2 <= 0 || st.EnergyBaseline <= 0 {
		t.Error("energy not accumulated")
	}
	var merged UnitStats
	merged.Merge(st)
	merged.Merge(st)
	if merged.ThreadOps != 64 || merged.RecomputeHistogram.Total() != 64 {
		t.Errorf("merge: %+v", merged)
	}
	u.ResetStats()
	if u.Stats().ThreadOps != 0 {
		t.Error("reset failed")
	}
	if (UnitStats{}).ThreadMispredictionRate() != 0 || (UnitStats{}).MeanRecomputedSlices() != 0 {
		t.Error("empty stats should be 0")
	}
}

// FP32 mantissa extraction: the slice datapath result must reproduce the
// exact aligned-significand arithmetic.
func TestMantissaOpF32(t *testing.T) {
	op, ok := MantissaOpF32(1.5, 2.5)
	if !ok {
		t.Fatal("normal operands rejected")
	}
	// 1.5 = 1.1b×2^0 → sig 0xC00000 e127; 2.5 = 1.01b×2^1 → sig 0xA00000 e128.
	// Align: 1.5 shifts right 1 → 0x600000; big = 0xA00000.
	if op.Op != adder.Add || op.A != 0xA00000 || op.B != 0x600000 {
		t.Errorf("1.5+2.5 mantissa op = %+v", op)
	}
	// Different signs → mantissa subtraction.
	op, ok = MantissaOpF32(1.5, -2.5)
	if !ok || op.Op != adder.Sub {
		t.Errorf("mixed signs should be Sub: %+v", op)
	}
	// Specials bypass.
	if _, ok := MantissaOpF32(float32(math.NaN()), 1); ok {
		t.Error("NaN should bypass")
	}
	if _, ok := MantissaOpF32(float32(math.Inf(1)), 1); ok {
		t.Error("Inf should bypass")
	}
	if _, ok := MantissaOpF32(0, 0); ok {
		t.Error("0+0 should bypass")
	}
	// Denormal handled.
	if _, ok := MantissaOpF32(1e-44, 1e-44); !ok {
		t.Error("denormals should flow through the adder")
	}
}

func TestMantissaOpF64(t *testing.T) {
	op, ok := MantissaOpF64(1.0, 1.0)
	if !ok {
		t.Fatal("rejected")
	}
	// Equal exponents: no shift; hidden bits truncated above bit 51.
	if op.A != 0 || op.B != 0 || op.Op != adder.Add {
		t.Errorf("1.0+1.0 mantissa op = %+v (fractions are zero)", op)
	}
	op, ok = MantissaOpF64(1.25, 3.5)
	if !ok || op.Op != adder.Add {
		t.Fatalf("1.25+3.5: %+v", op)
	}
	if _, ok := MantissaOpF64(math.Inf(-1), 3); ok {
		t.Error("Inf should bypass")
	}
}

// Property: for finite floats the extracted mantissa op, run through the
// FPU's sliced adder, is always exact (the slice engine never corrupts the
// mantissa datapath), and large-shift alignment never panics.
func TestMantissaThroughSlicedAdder(t *testing.T) {
	u := newTestUnit(t, FPU)
	f := func(xb, yb uint32, pred uint64) bool {
		x := math.Float32frombits(xb)
		y := math.Float32frombits(yb)
		op, ok := MantissaOpF32(x, y)
		if !ok {
			return true
		}
		r := u.Adder().Execute(op.A, op.B, op.Op, pred)
		wantSum, wantCout := u.Adder().Reference(op.A, op.B, op.Op)
		return r.Sum == wantSum && r.CarryOut == wantCout
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// FP value streams with correlated magnitudes (the paper's observation)
// should speculate well on the FPU after warm-up.
func TestFPUSpeculationOnCorrelatedStream(t *testing.T) {
	u := newTestUnit(t, FPU)
	p, err := speculate.NewDesign(speculate.FinalDesign, u.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	spec := &PredictorSpeculator{P: p}
	rng := rand.New(rand.NewSource(8))
	var mis, tot uint64
	for iter := 0; iter < 400; iter++ {
		var lanes [WarpSize]LaneOp
		for l := 0; l < WarpSize; l++ {
			// Accumulation pattern: running sum + small increment.
			acc := float32(l*100) + float32(iter)*0.25
			inc := 0.25 + float32(rng.Float64())*0.01
			if op, ok := MantissaOpF32(acc, inc); ok {
				lanes[l] = op
			}
		}
		res := u.ExecuteWarp(spec, 4, 0, &lanes)
		if iter >= 50 { // after warm-up
			mis += uint64(res.ThreadMispredicts)
			tot += uint64(res.ActiveLanes)
		}
	}
	rate := float64(mis) / float64(tot)
	if rate > 0.30 {
		t.Errorf("FPU misprediction rate %.3f too high on correlated stream", rate)
	}
}

// A 64-bit unit with 1-bit slices has 63 boundaries; the per-lane
// boundary counts must cover all of them, not only the low 32.
func TestBoundaryCountsAbove32Boundaries(t *testing.T) {
	p, err := DeriveEnergyParams(circuit.SAED90(), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnit(ALU, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	g := u.Geometry()
	if nb := g.Boundaries(); nb != 63 {
		t.Fatalf("64-bit unit with 1-bit slices has %d boundaries, want 63", nb)
	}
	lanes := fullWarp(adder.Add, func(int) (uint64, uint64) { return 0, 0 })
	res := u.ExecuteWarp(&PredictorSpeculator{P: speculate.WithPeek(g, speculate.NewStaticZero(g))}, 0, 0, &lanes)
	if want := 63 * WarpSize; res.StaticBoundaries != want || res.DynamicBoundaries != 0 {
		t.Errorf("all-zero operands under Peek: %d static / %d dynamic boundaries, want %d / 0",
			res.StaticBoundaries, res.DynamicBoundaries, want)
	}
	// Both operands all ones: every 1-bit slice generates a carry, so a
	// static-zero prediction is wrong at every boundary on cycle 1.
	lanes = fullWarp(adder.Add, func(int) (uint64, uint64) { return ^uint64(0), ^uint64(0) })
	res = u.ExecuteWarp(&PredictorSpeculator{P: speculate.NewStaticZero(g)}, 0, 0, &lanes)
	if want := 63 * WarpSize; res.WrongBoundaries != want {
		t.Errorf("generate chain under staticZero: %d wrong boundaries, want %d", res.WrongBoundaries, want)
	}
}
