package speculate

import (
	"math/bits"

	"st2gpu/internal/bitmath"
)

// This file extends the warp form from predictor lookup to full
// evaluation: the judge (which lanes mispredicted, how many boundary
// bits matched) and the Peek overlay run as uint64 mask arithmetic over
// all active lanes of a record, with no data-dependent branches in the
// lane loops. The design-batched trace kernels call these once per record
// per design, so every instruction here is on the sweep hot path.

// PeekBitsWarp computes PeekBits for every active lane at once: ea/eb
// hold the popcount(active) lanes' operands in ascending-lane order, and
// static/values receive each lane's statically-resolved boundary mask and
// values. Hoisting this out of the per-design loop is what lets a
// design batch share one Peek computation per record.
func PeekBitsWarp(g Geometry, ea, eb, static, values []uint64) {
	if g.SliceBits == 8 {
		m := g.BoundaryMask()
		for j := range ea {
			static[j] = bitmath.GatherMSB8(^(ea[j] ^ eb[j])) & m
			values[j] = bitmath.GatherMSB8(ea[j]&eb[j]) & m
		}
		return
	}
	for j := range ea {
		static[j], values[j] = PeekBits(g, ea[j], eb[j])
	}
}

// OverlayPeek applies the Peek filter to each lane's dynamic prediction,
// exactly as peekPredictor.PredictWarp composes it: peek-resolved boundaries
// take their known values and join the static set.
func OverlayPeek(carries, static, pkStatic, pkValues []uint64) {
	for j := range carries {
		carries[j] = (carries[j] &^ pkStatic[j]) | pkValues[j]
		static[j] |= pkStatic[j]
	}
}

// SplitPeek strips a Peek wrapper: it returns the inner predictor and
// true when p is Peek-filtered, or p itself and false otherwise. Batched
// evaluators use it to hoist the per-record Peek computation out of the
// per-design predictor calls (PeekBitsWarp once, OverlayPeek per design).
func SplitPeek(p Predictor) (Predictor, bool) {
	if pk, ok := p.(*peekPredictor); ok {
		return pk.inner, true
	}
	return p, false
}

// JudgeMissWarp scores one warp record against one design's predictions
// with the miss-rate semantics (Figure 5): a lane mispredicts when any
// non-static boundary under mask was speculated wrong. carries/static
// hold the predictions, actual the true (already masked) boundary
// carries, all in ascending-lane order. Returns the mispredicting-lane
// mask and the misprediction count; the body is branchless.
func JudgeMissWarp(active uint32, mask uint64, carries, static, actual []uint64) (mispred uint32, missed uint64) {
	if active == ^uint32(0) {
		// Full warp: lane l is index l, no mask iteration needed.
		for j := range actual {
			wrong := bitmath.NonZeroBit((carries[j] ^ actual[j]) & mask &^ static[j])
			mispred |= uint32(wrong) << j
			missed += wrong
		}
		return mispred, missed
	}
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		wrong := bitmath.NonZeroBit((carries[j] ^ actual[j]) & mask &^ static[j])
		mispred |= uint32(wrong) << l
		missed += wrong
		j++
	}
	return mispred, missed
}

// JudgeCorrWarp scores one warp record against one design's predictions
// with the per-boundary correlation semantics (Figure 3): the number of
// boundary bits, over nb boundaries per lane, that matched the true
// carries.
func JudgeCorrWarp(nb uint, mask uint64, carries, actual []uint64) (matched uint64) {
	for j := range actual {
		matched += uint64(nb) - uint64(bits.OnesCount64((carries[j]^actual[j])&mask))
	}
	return matched
}
