package speculate

import "math/bits"

// VaLHALLA models the prior state-of-the-art variable-latency adder the
// paper compares against (Gok & Hardavellas, GLSVLSI 2017). Its defining
// properties, per Section IV-B:
//
//   - it predicts a single 1-bit carry for the entire adder and broadcasts
//     it to every slice;
//   - the prediction is history-aware and local to one adder (no sharing
//     across threads, no PC disambiguation);
//   - it speculates on *every* operation (no Peek-style static filtering).
//
// We model the per-adder history as one bit per hardware thread context
// (keyed by global thread id — the optimistic reading, consistent with the
// paper's note that the non-final design points ignore implementation
// constraints), updated to the majority of the boundary carries the
// previous operation actually produced ("history aware local-carry").
//
// The table is a gtid-indexed slice grown on demand: global thread ids
// are dense small integers in every workload, and an unwritten slot
// reads 0 exactly like the missing map entry it replaces — the map this
// used to be dominated the design-batched sweep's profile.
type VaLHALLA struct {
	g        Geometry
	bits     []uint8          // gtid → last broadcast bit, gtids below maxValhallaDense
	overflow map[uint32]uint8 // sparse fallback for pathologically large gtids
}

// maxValhallaDense bounds the dense table: real launches number their
// global threads densely from zero, so the slice covers them all; an
// adversarially huge gtid (fuzzing, property tests) lands in the
// overflow map instead of sizing a multi-GiB allocation.
const maxValhallaDense = 1 << 22

// NewVaLHALLA builds the baseline predictor.
func NewVaLHALLA(g Geometry) *VaLHALLA {
	return &VaLHALLA{g: g}
}

// Name implements Predictor.
func (v *VaLHALLA) Name() string { return "VaLHALLA" }

// bit returns the thread's history bit (0 when never written).
func (v *VaLHALLA) bit(gtid uint32) uint8 {
	if uint64(gtid) < uint64(len(v.bits)) {
		return v.bits[gtid]
	}
	if gtid >= maxValhallaDense {
		return v.overflow[gtid]
	}
	return 0
}

// setBit writes the thread's history bit, growing the dense table to
// cover it (or spilling to the overflow map past the dense bound).
func (v *VaLHALLA) setBit(gtid uint32, b uint8) {
	if gtid >= maxValhallaDense {
		if v.overflow == nil {
			v.overflow = make(map[uint32]uint8)
		}
		v.overflow[gtid] = b
		return
	}
	if uint64(gtid) >= uint64(len(v.bits)) {
		grown := make([]uint8, 1<<bits.Len64(uint64(gtid)))
		copy(grown, v.bits)
		v.bits = grown
	}
	v.bits[gtid] = b
}

// Reset implements Predictor.
func (v *VaLHALLA) Reset() { v.bits, v.overflow = nil, nil }

// PredictWarp implements Predictor: each lane's single history bit,
// broadcast to all boundaries.
func (v *VaLHALLA) PredictWarp(_, gtidBase, active, _ uint32, _, _, carries, static []uint64) {
	mask := v.g.BoundaryMask()
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		carries[j] = uint64(v.bit(gtidBase+uint32(l))) * mask
		static[j] = 0
		j++
	}
}

// UpdateWarp implements Predictor: each active lane's bit becomes the
// majority of the boundary carries its operation actually produced.
// VaLHALLA updates on every operation (it has no notion of selective
// write-back), so the mispredict mask is ignored.
func (v *VaLHALLA) UpdateWarp(_, gtidBase, active, _, _ uint32, _, _, actual []uint64) {
	nb := int(v.g.Boundaries())
	mask := v.g.BoundaryMask()
	if active == 0 {
		return
	}
	hi := gtidBase + uint32(31-bits.LeadingZeros32(active))
	dense := hi < maxValhallaDense && hi >= gtidBase // no wraparound
	if dense && uint64(hi) >= uint64(len(v.bits)) {
		// One growth covers the warp: lanes update gtidBase..hi.
		v.setBit(hi, 0)
	}
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		ones := bits.OnesCount64(actual[j] & mask)
		var b uint8
		if 2*ones >= nb+1 {
			b = 1
		}
		if dense {
			v.bits[gtidBase+uint32(l)] = b
		} else {
			v.setBit(gtidBase+uint32(l), b)
		}
		j++
	}
}
