package speculate

import (
	"math/bits"
	"math/rand"
	"testing"

	"st2gpu/internal/bitmath"
)

// peekBitsRef is the pre-gather reference implementation of PeekBits.
func peekBitsRef(g Geometry, ea, eb uint64) (static, values uint64) {
	nb := g.Boundaries()
	agree := ^(ea ^ eb)
	both := ea & eb
	for i := uint(0); i < nb; i++ {
		msbPos := (i+1)*g.SliceBits - 1
		static |= (agree >> msbPos & 1) << i
		values |= (both >> msbPos & 1) << i
	}
	return static, values
}

// TestPeekBitsMatchesReference pins the GatherMSB8 fast path (and the
// loop fallback for non-8-bit slices) against the per-boundary walk.
func TestPeekBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	geoms := []Geometry{
		{Width: 64, SliceBits: 8},
		{Width: 32, SliceBits: 8},
		{Width: 52, SliceBits: 8},
		{Width: 64, SliceBits: 16}, // exercises the loop fallback
		{Width: 64, SliceBits: 4},
	}
	for _, g := range geoms {
		for i := 0; i < 2000; i++ {
			ea, eb := rng.Uint64(), rng.Uint64()
			switch i {
			case 0:
				ea, eb = 0, 0
			case 1:
				ea, eb = ^uint64(0), ^uint64(0)
			case 2:
				ea, eb = ^uint64(0), 0
			}
			wantS, wantV := peekBitsRef(g, ea, eb)
			gotS, gotV := PeekBits(g, ea, eb)
			if gotS != wantS || gotV != wantV {
				t.Fatalf("PeekBits(%+v, %#x, %#x) = (%#x, %#x), want (%#x, %#x)",
					g, ea, eb, gotS, gotV, wantS, wantV)
			}
		}
	}
}

// TestPeekBitsWarpMatchesScalar checks the warp-batched Peek fills every
// lane exactly as the scalar call would.
func TestPeekBitsWarpMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := Geometry{Width: 64, SliceBits: 8}
	n := 32
	ea, eb := make([]uint64, n), make([]uint64, n)
	for j := range ea {
		ea[j], eb[j] = rng.Uint64(), rng.Uint64()
	}
	static, values := make([]uint64, n), make([]uint64, n)
	PeekBitsWarp(g, ea, eb, static, values)
	for j := range ea {
		wantS, wantV := PeekBits(g, ea[j], eb[j])
		if static[j] != wantS || values[j] != wantV {
			t.Fatalf("lane %d: PeekBitsWarp = (%#x, %#x), scalar = (%#x, %#x)",
				j, static[j], values[j], wantS, wantV)
		}
	}
}

// TestOverlayPeekMatchesPeekPredictor pins OverlayPeek to the
// peekPredictor composition formula.
func TestOverlayPeekMatchesPeekPredictor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		dyn, dynStatic := rng.Uint64()&0x7f, rng.Uint64()&0x7f
		pkS, pkV := rng.Uint64()&0x7f, rng.Uint64()&0x7f
		pkV &= pkS // values only exist on resolved boundaries
		carries, static := []uint64{dyn}, []uint64{dynStatic}
		OverlayPeek(carries, static, []uint64{pkS}, []uint64{pkV})
		wantC := (dyn &^ pkS) | pkV
		wantS := dynStatic | pkS
		if carries[0] != wantC || static[0] != wantS {
			t.Fatalf("OverlayPeek = (%#x, %#x), want (%#x, %#x)", carries[0], static[0], wantC, wantS)
		}
	}
}

// TestSplitPeek checks the wrapper strip and the pass-through case.
func TestSplitPeek(t *testing.T) {
	g := Geometry{Width: 64, SliceBits: 8}
	h, err := NewHistory(HistoryConfig{Geometry: g, PCMode: ModPC, PCBits: 4, Threads: ByLtid})
	if err != nil {
		t.Fatal(err)
	}
	inner, peeked := SplitPeek(WithPeek(g, h))
	if !peeked || inner != Predictor(h) {
		t.Fatalf("SplitPeek(WithPeek(h)) = (%v, %v), want (h, true)", inner, peeked)
	}
	same, peeked := SplitPeek(h)
	if peeked || same != Predictor(h) {
		t.Fatalf("SplitPeek(h) = (%v, %v), want (h, false)", same, peeked)
	}
}

// TestJudgeMissWarpMatchesScalar checks the branchless warp judge (both
// the dense full-warp path and the sparse mask walk) against a direct
// per-lane reference.
func TestJudgeMissWarpMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 2000; trial++ {
		active := rng.Uint32()
		if trial%4 == 0 {
			active = ^uint32(0) // exercise the dense path
		}
		if active == 0 {
			active = 1
		}
		mask := bitmath.Mask(uint(1 + rng.Intn(7)))
		n := bits.OnesCount32(active)
		carries, static, actual := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for j := 0; j < n; j++ {
			carries[j] = rng.Uint64() & mask
			static[j] = rng.Uint64() & mask
			actual[j] = rng.Uint64() & mask
		}
		var wantMispred uint32
		var wantMissed uint64
		j := 0
		for m := active; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if (carries[j]^actual[j])&mask&^static[j] != 0 {
				wantMispred |= 1 << l
				wantMissed++
			}
			j++
		}
		mispred, missed := JudgeMissWarp(active, mask, carries, static, actual)
		if mispred != wantMispred || missed != wantMissed {
			t.Fatalf("JudgeMissWarp(active=%#x) = (%#x, %d), want (%#x, %d)",
				active, mispred, missed, wantMispred, wantMissed)
		}
	}
}

// TestJudgeCorrWarpMatchesScalar checks the matched-boundary counter.
func TestJudgeCorrWarpMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 1000; trial++ {
		nb := uint(1 + rng.Intn(7))
		mask := bitmath.Mask(nb)
		n := 1 + rng.Intn(32)
		carries, actual := make([]uint64, n), make([]uint64, n)
		var want uint64
		for j := 0; j < n; j++ {
			carries[j] = rng.Uint64() & mask
			actual[j] = rng.Uint64() & mask
			want += uint64(nb) - uint64(bits.OnesCount64(carries[j]^actual[j]))
		}
		if got := JudgeCorrWarp(nb, mask, carries, actual); got != want {
			t.Fatalf("JudgeCorrWarp = %d, want %d", got, want)
		}
	}
}

// mapOnlyHistory runs a History forced onto the map representation so
// the dense path can be differentially tested against it.
func mapOnlyHistory(t *testing.T, cfg HistoryConfig) *History {
	t.Helper()
	h, err := NewHistory(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Force the sparse fallback regardless of denseSize / grow mode.
	h.dense, h.written, h.entries = nil, nil, 0
	h.growMode, h.pcBits = false, 0
	h.table = make(map[uint64]uint64)
	return h
}

// TestHistoryDenseMatchesMap drives dense-eligible configurations with
// an identical random request stream through both representations and
// requires identical predictions, entry counts and warp-batch behavior.
func TestHistoryDenseMatchesMap(t *testing.T) {
	g := Geometry{Width: 64, SliceBits: 8}
	cfgs := []HistoryConfig{
		{Geometry: g, PCMode: NoPC, Threads: SharedThreads},
		{Geometry: g, PCMode: NoPC, Threads: ByLtid},
		{Geometry: g, PCMode: ModPC, PCBits: 4, Threads: ByLtid},
		{Geometry: g, PCMode: ModPC, PCBits: 8, Threads: SharedThreads},
		{Geometry: g, PCMode: XorPC, PCBits: 6, Threads: ByLtid, AlwaysUpdate: true},
		// Grow-on-demand gtid-major tables (ByGtid, bounded PC space).
		{Geometry: g, PCMode: NoPC, Threads: ByGtid},
		{Geometry: g, PCMode: ModPC, PCBits: 4, Threads: ByGtid},
		{Geometry: g, PCMode: XorPC, PCBits: 5, Threads: ByGtid, AlwaysUpdate: true},
	}
	for _, cfg := range cfgs {
		t.Run(cfg.Name(), func(t *testing.T) {
			dense, err := NewHistory(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if dense.dense == nil && !dense.growMode {
				t.Fatalf("config %v did not get a flat-table representation", cfg)
			}
			sparse := mapOnlyHistory(t, cfg)
			rng := rand.New(rand.NewSource(12))
			for i := 0; i < 5000; i++ {
				gtid := rng.Uint32() & 0x3ff
				if i%7 == 0 {
					// Full-range ids exercise the grow-table overflow spill.
					gtid = rng.Uint32()
				}
				ctx := Context{
					PC:   rng.Uint32() & 0xffff,
					Gtid: gtid,
					Ltid: uint8(rng.Intn(32)),
					EA:   rng.Uint64(), EB: rng.Uint64(),
					Cin0: uint(rng.Intn(2)),
				}
				pd, ps := predictOne(dense, ctx), predictOne(sparse, ctx)
				if pd != ps {
					t.Fatalf("op %d: dense Predict %+v, map Predict %+v", i, pd, ps)
				}
				actual := rng.Uint64()
				mis := rng.Intn(3) != 0
				updateOne(dense, ctx, actual, mis)
				updateOne(sparse, ctx, actual, mis)
				if dense.Entries() != sparse.Entries() {
					t.Fatalf("op %d: dense Entries %d, map Entries %d", i, dense.Entries(), sparse.Entries())
				}
			}
			dense.Reset()
			if dense.Entries() != 0 {
				t.Fatalf("Entries after Reset = %d", dense.Entries())
			}
			if predictOne(dense, Context{}).Carries != 0 {
				t.Fatal("post-Reset prediction not cold")
			}
		})
	}
}
