// Package trace implements the value- and carry-correlation analyses of
// the paper's Sections III and IV: collectors that attach to the GPU
// simulator's adder-operation stream (gpusim.AddTracer) and produce
//
//   - Figure 2-style value-evolution series (per-PC result streams in
//     logical time);
//   - Figure 3-style carry-in match rates across the temporal/spatial
//     axes (Prev+Gtid, Prev+FullPC+Gtid, Prev+FullPC+Ltid);
//   - the single-pass design-space sweep behind Figure 5, evaluating
//     every speculation design on the identical operation stream.
package trace

import (
	"fmt"
	"slices"
	"sort"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// g64 is the prediction geometry shared by every meter: with 8-bit
// slices, boundary i sits at bit 8(i+1) for every unit width, so one
// 7-boundary predictor covers ALU64/ALU32/FPU/DPU operations — narrower
// ops simply use (and are judged on) their low boundaries. This mirrors
// the hardware, where the same per-SM CRF serves every unit family.
var g64 = speculate.Geometry{Width: 64, SliceBits: 8}

// boundariesOf returns how many carry boundaries an op of the given unit
// kind speculates (width/8 − 1).
func boundariesOf(kind core.UnitKind) uint {
	switch kind {
	case core.ALU32:
		return 3
	case core.FPU:
		return 2
	case core.DPU:
		return 6
	default:
		return 7
	}
}

// --- Figure 2: value evolution ---

// ValuePoint is one executed add: its logical time (order of observation)
// and the produced value.
type ValuePoint struct {
	Time  int
	Value int64
}

// ValueTrace records, for one thread, the result stream of each PC —
// exactly the data behind Figure 2's pathfinder plot.
type ValueTrace struct {
	Gtid   uint32
	MaxPts int
	clock  int
	series map[uint32][]ValuePoint
}

// NewValueTrace traces thread gtid, keeping at most maxPts points per PC.
func NewValueTrace(gtid uint32, maxPts int) *ValueTrace {
	return &ValueTrace{Gtid: gtid, MaxPts: maxPts, series: make(map[uint32][]ValuePoint)}
}

// TraceWarpAdds implements gpusim.AddTracer.
func (v *ValueTrace) TraceWarpAdds(kind core.UnitKind, pc, gtidBase uint32, ops *[32]gpusim.WarpAddOp) {
	if v.Gtid < gtidBase || v.Gtid >= gtidBase+32 {
		return
	}
	op := ops[v.Gtid-gtidBase]
	if !op.Active {
		return
	}
	v.clock++
	if len(v.series[pc]) >= v.MaxPts {
		return
	}
	var val int64
	switch kind {
	case core.ALU32:
		val = bitmath.SignExtend(op.Sum, 32)
	default:
		val = int64(op.Sum) // 64-bit results; mantissa magnitudes for FP adds
	}
	v.series[pc] = append(v.series[pc], ValuePoint{Time: v.clock, Value: val})
}

// PCs returns the traced PCs in ascending order.
func (v *ValueTrace) PCs() []uint32 {
	out := make([]uint32, 0, len(v.series))
	for pc := range v.series {
		out = append(out, pc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Series returns the value stream of one PC.
func (v *ValueTrace) Series(pc uint32) []ValuePoint { return v.series[pc] }

// --- Figure 3: carry-in correlation ---

// Fig3Designs are the three history-bucketing schemes of Figure 3.
var Fig3Designs = []string{"Gtid+Prev", "Gtid+Prev+FullPC", "Ltid+Prev+FullPC"}

// CorrMeter measures, for each Figure 3 scheme, the fraction of boundary
// carry-ins that match the history bucket's previous content. Cold
// buckets compare against the zero-initialized history — which is what
// lets *shared* histories (Ltid) score higher than fully disambiguated
// ones (Gtid): sharing warms buckets faster.
type CorrMeter struct {
	eval    *corrEval
	scratch warpScratch
}

// NewCorrMeter builds the three-scheme correlation meter.
func NewCorrMeter() (*CorrMeter, error) {
	e, err := newCorrEval(Fig3Designs)
	if err != nil {
		return nil, err
	}
	return &CorrMeter{eval: e}, nil
}

// TraceWarpAdds implements gpusim.AddTracer: the warp is compacted once
// and all three schemes run the Figure 3 eval step on it.
func (m *CorrMeter) TraceWarpAdds(kind core.UnitKind, pc, gtidBase uint32, ops *[32]gpusim.WarpAddOp) {
	m.eval.step(m.scratch.compact(kind, pc, gtidBase, ops))
}

// MatchRate returns the per-boundary match fraction for a design.
func (m *CorrMeter) MatchRate(design string) (float64, error) {
	r, err := m.RawRate(design)
	return r.Value(), err
}

// Rates returns all three match rates in Fig3Designs order.
func (m *CorrMeter) Rates() []float64 {
	out := make([]float64, len(Fig3Designs))
	for i, d := range Fig3Designs {
		out[i], _ = m.MatchRate(d)
	}
	return out
}

// RawRate exposes the underlying counter so callers can aggregate match
// rates op-weighted across kernels (buckets with a single observation
// contribute nothing and must not be averaged as zero).
func (m *CorrMeter) RawRate(design string) (stats.Rate, error) {
	d := slices.Index(Fig3Designs, design)
	if d < 0 {
		return stats.Rate{}, fmt.Errorf("trace: unknown Figure 3 design %q", design)
	}
	return m.eval.match[d], nil
}

// --- Figure 5: single-pass design-space sweep ---

// DSEMeter evaluates a set of speculation designs on the identical
// operation stream, counting per-thread-op mispredictions exactly as the
// ST² hardware would (a thread-op mispredicts when any non-Peek boundary
// was speculated wrong).
type DSEMeter struct {
	Designs []string
	eval    *missEval
	scratch warpScratch
}

// NewDSEMeter builds a sweep over the given designs (defaulting to the
// full Figure 5 space when nil).
func NewDSEMeter(designs []string) (*DSEMeter, error) {
	if designs == nil {
		designs = speculate.DesignSpace
	}
	e, err := newMissEval(designs)
	if err != nil {
		return nil, err
	}
	return &DSEMeter{Designs: designs, eval: e}, nil
}

// TraceWarpAdds implements gpusim.AddTracer: the warp is compacted once
// (boundary carries computed per lane, not per design) and every design
// runs the Figure 5 eval step on it.
func (m *DSEMeter) TraceWarpAdds(kind core.UnitKind, pc, gtidBase uint32, ops *[32]gpusim.WarpAddOp) {
	m.eval.step(m.scratch.compact(kind, pc, gtidBase, ops))
}

// MissRate returns a design's thread misprediction rate.
func (m *DSEMeter) MissRate(design string) (float64, error) {
	r, err := m.Rate(design)
	return r.Value(), err
}

// Rate exposes the raw counter for aggregation across kernels.
func (m *DSEMeter) Rate(design string) (stats.Rate, error) {
	d := slices.Index(m.Designs, design)
	if d < 0 {
		return stats.Rate{}, fmt.Errorf("trace: design %q not in sweep", design)
	}
	return m.eval.miss[d], nil
}
