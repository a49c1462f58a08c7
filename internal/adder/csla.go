package adder

import "st2gpu/internal/bitmath"

// CSLAResult reports one operation on the carry-select baseline.
type CSLAResult struct {
	Sum      uint64
	CarryOut uint
	// SliceComputations is the number of slice-level additions performed:
	// a CSLA computes both carry alternatives for every slice above slice
	// 0, always — 2n-1 computations. This is the energy-relevant contrast
	// with ST², which pays the second computation only on mispredictions.
	SliceComputations int
}

// CSLA models the classic carry-select adder (Bedrij, 1962) the paper
// positions ST² against in Section IV-A: same slicing, but both carry-in
// alternatives are computed unconditionally for every slice and the final
// multiplexing picks the right one. Always single-cycle, never wrong,
// roughly 2× the slice energy.
type CSLA struct {
	cfg Config
}

// NewCSLA returns a carry-select adder for the configuration.
func NewCSLA(cfg Config) (*CSLA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &CSLA{cfg: cfg}, nil
}

// Config returns the adder's configuration.
func (c *CSLA) Config() Config { return c.cfg }

// Execute performs one add/sub. The final multiplexer chain selects, in
// every slice, the alternative computed with that slice's true carry-in,
// so the selected result is always the exact sum; the model's content is
// the cost, the 2n−1 slice computations.
func (c *CSLA) Execute(a, b uint64, op Op) CSLAResult {
	ea, eb, cin0 := effectiveOperands(c.cfg.Width, a, b, op)
	sum, cout := bitmath.AddWithCarry(ea, eb, cin0, c.cfg.Width)
	return CSLAResult{Sum: sum, CarryOut: cout, SliceComputations: int(2*c.cfg.NumSlices() - 1)}
}
