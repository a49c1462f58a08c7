package trace

import (
	"fmt"
	"math"
	"slices"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/speculate"
)

// ApproxMeter quantifies what the error-accepting approximate speculative
// adders of the paper's related work ([10]–[13]) would do on real kernel
// streams: it executes every traced operation with the predicted carries
// and *no correction pass*, recording how often the result is wrong and
// by how much. This is the repository's evidence for the paper's central
// design decision — why ST² insists on the variable-latency correction.
type ApproxMeter struct {
	Designs []string
	eval    *approxEval
	scratch warpScratch
}

type runningMean struct {
	sum float64
	n   uint64
}

func (r *runningMean) add(v float64) { r.sum += v; r.n++ }

// addRelative records |got−exact|/max(1,|exact|) with both values read as
// two's-complement signed results.
func (r *runningMean) addRelative(got, exact uint64) {
	denom := math.Max(1, math.Abs(float64(int64(exact))))
	r.add(math.Abs(float64(int64(got))-float64(int64(exact))) / denom)
}
func (r *runningMean) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// NewApproxMeter builds the meter over the given designs (nil = the
// final ST² design and staticZero, the most common approximate-adder
// assumption).
func NewApproxMeter(designs []string) (*ApproxMeter, error) {
	if designs == nil {
		designs = []string{"staticZero", speculate.FinalDesign}
	}
	e, err := newApproxEval(designs)
	if err != nil {
		return nil, err
	}
	return &ApproxMeter{Designs: designs, eval: e}, nil
}

// widthOf returns the datapath width for a unit kind.
func widthOf(kind core.UnitKind) uint {
	switch kind {
	case core.ALU32:
		return 32
	case core.FPU:
		return 24
	case core.DPU:
		return 52
	default:
		return 64
	}
}

// approxSum assembles the no-correction result: each 8-bit slice adds
// with its predicted carry-in, wrong or not.
func approxSum(ea, eb uint64, cin0 uint, width uint, predicted uint64) uint64 {
	n := bitmath.NumSlices(width, 8)
	var out uint64
	for i := uint(0); i < n; i++ {
		lo := i * 8
		w := bitmath.SliceWidthAt(i, width, 8)
		cin := cin0
		if i > 0 {
			cin = uint((predicted >> (i - 1)) & 1)
		}
		s, _ := bitmath.AddWithCarry(bitmath.Slice(ea, lo, w), bitmath.Slice(eb, lo, w), cin, w)
		out |= s << lo
	}
	return out & bitmath.Mask(width)
}

// TraceWarpAdds implements gpusim.AddTracer. The warp is compacted once
// (the traced Sum doubles as the exact result — the recording integrity
// check pins Sum == EA+EB+Cin0 over the unit width) and every design
// runs the approximate-adder eval step on it.
func (m *ApproxMeter) TraceWarpAdds(kind core.UnitKind, pc, gtidBase uint32, ops *[32]gpusim.WarpAddOp) {
	m.eval.step(m.scratch.compact(kind, pc, gtidBase, ops))
}

// result returns a design's outcome so far.
func (m *ApproxMeter) result(design string) (ApproxResult, error) {
	d := slices.Index(m.Designs, design)
	if d < 0 {
		return ApproxResult{}, fmt.Errorf("trace: design %q not in approx meter", design)
	}
	return m.eval.result(d), nil
}

// WrongRate returns the fraction of operations whose uncorrected result
// would have been wrong.
func (m *ApproxMeter) WrongRate(design string) (float64, error) {
	r, err := m.result(design)
	return r.Wrong.Value(), err
}

// MeanRelError returns the mean relative magnitude error of the wrong
// results.
func (m *ApproxMeter) MeanRelError(design string) (float64, error) {
	r, err := m.result(design)
	return r.MeanRelErr, err
}
