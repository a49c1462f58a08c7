// Package speculate implements the carry-speculation mechanisms of the ST²
// design-space exploration (Section IV-B of the paper): static predictors,
// the VaLHALLA baseline, the Prev history mechanism with ModPCk / Gtid /
// Ltid indexing, the Peek static-resolution filter, and the hardware Carry
// Register File (CRF) with write-back contention and random arbitration.
//
// A Predictor produces, for one warp-synchronous add/sub, every active
// lane's packed per-boundary carry predictions that internal/adder
// consumes, and learns from the lanes' actual carry-outs afterwards.
package speculate

import (
	"fmt"
	"math/bits"

	"st2gpu/internal/adder"
	"st2gpu/internal/bitmath"
)

// Prediction carries the packed boundary predictions plus the mask of
// boundaries that were resolved statically (by Peek) and are therefore
// guaranteed correct — the hardware performs no dynamic speculation there.
type Prediction struct {
	Carries uint64 // bit i = predicted carry into slice i+1
	Static  uint64 // bit i set: boundary i was statically resolved (Peek)
}

// Predictor is one point in the carry-speculation design space. It works
// on one warp-synchronous add/sub at a time: the active lanes' operands
// and results sit in flat ascending-lane slices, the j-th set bit of
// active owning index j (popcount(active) entries). Every prediction of
// a warp reads the pre-update state (the hardware reads the CRF row once
// per warp), and updates land in ascending lane order, so the last
// writing lane wins a shared entry.
type Predictor interface {
	// Name returns the design-space label (e.g. "Ltid+Prev+ModPC4+Peek").
	Name() string
	// PredictWarp fills carries[j]/static[j] with the boundary carries to
	// speculate for the j-th active lane, whose global thread id is
	// gtidBase plus its lane. ea/eb are the lanes' effective operands
	// (after the subtraction transform, as the slice input registers
	// hold them) and cin bit l is lane l's injected slice-0 carry.
	PredictWarp(pc, gtidBase, active, cin uint32, ea, eb, carries, static []uint64)
	// UpdateWarp delivers the true (already kind-masked) boundary carries
	// of every active lane; bit l of mispred marks lane l as having
	// mispredicted. Following the paper, history designs write only
	// mispredicting lanes (that is when the hardware performs a CRF
	// write-back).
	UpdateWarp(pc, gtidBase, active, mispred, cin uint32, ea, eb, actual []uint64)
	// Reset clears all history (new kernel launch).
	Reset()
}

// Geometry fixes the adder shape a predictor speculates for.
type Geometry struct {
	Width     uint
	SliceBits uint
}

// GeometryOf extracts the Geometry from an adder configuration.
func GeometryOf(cfg adder.Config) Geometry {
	return Geometry{Width: cfg.Width, SliceBits: cfg.SliceBits}
}

// Boundaries returns the number of speculated carry boundaries.
func (g Geometry) Boundaries() uint {
	return bitmath.NumSlices(g.Width, g.SliceBits) - 1
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	cfg := adder.Config{Width: g.Width, SliceBits: g.SliceBits}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if g.Boundaries() == 0 {
		return fmt.Errorf("speculate: geometry %+v has no boundaries to speculate", g)
	}
	return nil
}

// BoundaryMask returns the mask covering all boundary bits.
func (g Geometry) BoundaryMask() uint64 { return bitmath.Mask(g.Boundaries()) }

// staticPredictor predicts the same constant for every boundary.
type staticPredictor struct {
	g     Geometry
	value uint64
	name  string
}

// NewStaticZero returns the "staticZero" design: always predict carry 0.
func NewStaticZero(g Geometry) Predictor {
	return &staticPredictor{g: g, value: 0, name: "staticZero"}
}

// NewStaticOne returns the "staticOne" design: always predict carry 1.
func NewStaticOne(g Geometry) Predictor {
	return &staticPredictor{g: g, value: ^uint64(0), name: "staticOne"}
}

func (s *staticPredictor) Name() string { return s.name }

// PredictWarp implements Predictor: a constant per boundary, no state.
func (s *staticPredictor) PredictWarp(_, _, active, _ uint32, _, _, carries, static []uint64) {
	v := s.value & s.g.BoundaryMask()
	n := bits.OnesCount32(active)
	for j := 0; j < n; j++ {
		carries[j], static[j] = v, 0
	}
}

// UpdateWarp implements Predictor: static predictors never learn.
func (s *staticPredictor) UpdateWarp(_, _, _, _, _ uint32, _, _, _ []uint64) {}

// Reset implements Predictor.
func (s *staticPredictor) Reset() {}

// PeekBits computes the statically-resolvable boundaries for the given
// effective operands: boundary i (the carry out of slice i) is 0 when both
// MSBs of slice i's operands are 0, and 1 when both are 1. Returns the
// resolved mask and the resolved values. A boundary resolves exactly when
// the two MSBs agree, and resolves to their AND, so both masks are one
// slice-MSB gather each, free of data-dependent branches.
func PeekBits(g Geometry, ea, eb uint64) (static, values uint64) {
	nb := g.Boundaries()
	return bitmath.GatherSliceMSBs(^(ea ^ eb), g.SliceBits, nb),
		bitmath.GatherSliceMSBs(ea&eb, g.SliceBits, nb)
}

// peekPredictor wraps an inner predictor with the Peek filter: boundaries
// whose previous-slice operand MSBs agree are resolved statically
// (guaranteed correct); only the rest consult the inner predictor.
type peekPredictor struct {
	g     Geometry
	inner Predictor
}

// WithPeek adds the Peek mechanism in front of inner.
func WithPeek(g Geometry, inner Predictor) Predictor {
	return &peekPredictor{g: g, inner: inner}
}

func (p *peekPredictor) Name() string { return p.inner.Name() + "+Peek" }

// PredictWarp implements Predictor: the inner predictor runs first, then
// the Peek filter overlays the statically-resolved boundaries per lane.
func (p *peekPredictor) PredictWarp(pc, gtidBase, active, cin uint32, ea, eb, carries, static []uint64) {
	p.inner.PredictWarp(pc, gtidBase, active, cin, ea, eb, carries, static)
	for j := range carries {
		pk, values := PeekBits(p.g, ea[j], eb[j])
		carries[j] = (carries[j] &^ pk) | values
		static[j] |= pk
	}
}

// UpdateWarp implements Predictor: Peek itself holds no state.
func (p *peekPredictor) UpdateWarp(pc, gtidBase, active, mispred, cin uint32, ea, eb, actual []uint64) {
	p.inner.UpdateWarp(pc, gtidBase, active, mispred, cin, ea, eb, actual)
}

func (p *peekPredictor) Reset() { p.inner.Reset() }

// Oracle returns perfect predictions; used to bound achievable accuracy in
// tests and ablations.
type Oracle struct{ G Geometry }

// Name implements Predictor.
func (o *Oracle) Name() string { return "oracle" }

// PredictWarp implements Predictor: every lane's exact boundary carries,
// all marked as resolved.
func (o *Oracle) PredictWarp(_, _, active, cin uint32, ea, eb, carries, static []uint64) {
	all := o.G.BoundaryMask()
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		carries[j] = bitmath.BoundaryCarriesPacked(ea[j], eb[j], uint(cin>>l&1), o.G.Width, o.G.SliceBits)
		static[j] = all
		j++
	}
}

// UpdateWarp implements Predictor.
func (o *Oracle) UpdateWarp(_, _, _, _, _ uint32, _, _, _ []uint64) {}

// Reset implements Predictor.
func (o *Oracle) Reset() {}
