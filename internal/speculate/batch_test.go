package speculate

import (
	"math/bits"
	"math/rand"
	"testing"

	"st2gpu/internal/bitmath"
)

// batchTestDesigns covers every design point reachable from the
// experiment harnesses: the Figure 5 space, the Figure 3 analysis
// points, the ablation/related-work extras, and the oracle.
var batchTestDesigns = append(append([]string{}, DesignSpace...),
	"Ltid+Prev+XorPC4+Peek", "Ltid+Prev2+ModPC4+Peek",
	"Gtid+Prev", "Gtid+Prev+FullPC", "Ltid+Prev+FullPC",
	"CASA", "VLSA", "oracle",
)

type warpCase struct {
	pc, base    uint32
	active, cin uint32
	ea, eb      [32]uint64 // dense per-lane, only active lanes consulted
}

func randomWarps(rng *rand.Rand, n int) []warpCase {
	out := make([]warpCase, n)
	for i := range out {
		w := &out[i]
		w.pc = uint32(rng.Intn(64))
		w.base = uint32(rng.Intn(8)) * 32
		w.active = rng.Uint32()
		if w.active == 0 {
			w.active = 1 << uint(rng.Intn(32))
		}
		w.cin = rng.Uint32() & w.active
		for l := 0; l < 32; l++ {
			w.ea[l] = rng.Uint64() >> uint(rng.Intn(64))
			w.eb[l] = rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	return out
}

// TestWarpDispatchMatchesScalar drives every design's warp form and its
// scalar reference model (per-lane Predict/Update, scalar_test.go) over
// the same random warp stream and requires identical predictions at every
// step. The update stream mirrors the DSE meter: predictions from
// pre-update state, kind-masked actuals, mispredicting lanes written
// back. The second geometry takes the non-8-bit slice paths.
func TestWarpDispatchMatchesScalar(t *testing.T) {
	mask := bitmath.Mask(3) // judge on a narrow kind mask to exercise masking
	for _, name := range batchTestDesigns {
		t.Run(name, func(t *testing.T) {
			for _, g := range []Geometry{{Width: 64, SliceBits: 8}, {Width: 32, SliceBits: 4}} {
				batched, err := NewDesign(name, g)
				if err != nil {
					t.Fatal(err)
				}
				scalar := scalarOf(t, batched)
				rng := rand.New(rand.NewSource(42))
				var ea, eb, carries, static, actual [32]uint64
				for step, w := range randomWarps(rng, 200) {
					n := 0
					for m := w.active; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m)
						ea[n], eb[n] = w.ea[l], w.eb[l]
						n++
					}
					batched.PredictWarp(w.pc, w.base, w.active, w.cin, ea[:n], eb[:n], carries[:n], static[:n])

					var mispred uint32
					j := 0
					for m := w.active; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m)
						ctx := Context{PC: w.pc, Gtid: w.base + uint32(l), Ltid: uint8(l),
							EA: w.ea[l], EB: w.eb[l], Cin0: uint(w.cin >> l & 1)}
						want := scalar.Predict(ctx)
						if want.Carries != carries[j] || want.Static != static[j] {
							t.Fatalf("%+v step %d lane %d: batched Prediction{%#x,%#x} != scalar Prediction{%#x,%#x}",
								g, step, l, carries[j], static[j], want.Carries, want.Static)
						}
						actual[j] = bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, g.Width, g.SliceBits) & mask
						if (want.Carries^actual[j])&mask&^want.Static != 0 {
							mispred |= 1 << l
						}
						j++
					}

					j = 0
					for m := w.active; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m)
						ctx := Context{PC: w.pc, Gtid: w.base + uint32(l), Ltid: uint8(l),
							EA: w.ea[l], EB: w.eb[l], Cin0: uint(w.cin >> l & 1)}
						scalar.Update(ctx, actual[j], mispred&(1<<l) != 0)
						j++
					}
					batched.UpdateWarp(w.pc, w.base, w.active, mispred, w.cin, ea[:n], eb[:n], actual[:n])
				}
			}
		})
	}
}

// TestWarpDispatchAlwaysUpdate pins the CorrMeter-style flow (history
// written for every active lane) onto the warp form for the AlwaysUpdate
// designs, where a missed write would silently diverge.
func TestWarpDispatchAlwaysUpdate(t *testing.T) {
	g := Geometry{Width: 64, SliceBits: 8}
	for _, name := range []string{"Gtid+Prev", "Gtid+Prev+FullPC", "Ltid+Prev+FullPC"} {
		t.Run(name, func(t *testing.T) {
			batched, err := NewDesign(name, g)
			if err != nil {
				t.Fatal(err)
			}
			scalar := scalarOf(t, batched)
			rng := rand.New(rand.NewSource(7))
			var ea, eb, carries, static, actual [32]uint64
			for step, w := range randomWarps(rng, 120) {
				n := 0
				for m := w.active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					ea[n], eb[n] = w.ea[l], w.eb[l]
					n++
				}
				batched.PredictWarp(w.pc, w.base, w.active, w.cin, ea[:n], eb[:n], carries[:n], static[:n])
				j := 0
				for m := w.active; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					ctx := Context{PC: w.pc, Gtid: w.base + uint32(l), Ltid: uint8(l),
						EA: w.ea[l], EB: w.eb[l], Cin0: uint(w.cin >> l & 1)}
					want := scalar.Predict(ctx)
					if want.Carries != carries[j] || want.Static != static[j] {
						t.Fatalf("step %d lane %d: batched prediction diverged", step, l)
					}
					actual[j] = bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, 64, 8)
					scalar.Update(ctx, actual[j], true)
					j++
				}
				// CorrMeter semantics: every active lane updates.
				batched.UpdateWarp(w.pc, w.base, w.active, w.active, w.cin, ea[:n], eb[:n], actual[:n])
			}
		})
	}
}
