package speculate

import "st2gpu/internal/bitmath"

// Related-work baselines (Section VII of the paper).

// CASA models "CASA: Correlation-aware speculative adders" (Liu, Tao,
// Tan, Zhang — ISLPED 2014): a *static*, operand-derived prediction with
// no history. For each boundary it predicts the carry out of the
// preceding slice from that slice's operand MSBs — carry is likely iff at
// least one MSB is set (and certain when both are, impossible when
// neither is, which is the same observation ST² refines into Peek).
type CASA struct {
	G Geometry
}

// NewCASA builds the baseline.
func NewCASA(g Geometry) *CASA { return &CASA{G: g} }

// Name implements Predictor.
func (c *CASA) Name() string { return "CASA" }

// PredictWarp implements Predictor. Boundary i carries iff at least one
// of the preceding slice's operand MSBs is set (certain when both are,
// impossible when neither is, and CASA bets on propagation completing
// when exactly one is) — which is the slice-MSB gather of EA|EB.
func (c *CASA) PredictWarp(_, _, _, _ uint32, ea, eb, carries, static []uint64) {
	nb := c.G.Boundaries()
	for j := range carries {
		carries[j] = bitmath.GatherSliceMSBs(ea[j]|eb[j], c.G.SliceBits, nb)
		static[j] = 0
	}
}

// UpdateWarp implements Predictor (CASA is stateless).
func (c *CASA) UpdateWarp(_, _, _, _, _ uint32, _, _, _ []uint64) {}

// Reset implements Predictor.
func (c *CASA) Reset() {}

// NewVLSA returns the baseline of "Variable latency speculative addition"
// (Verma, Brisk, Ienne — DATE 2008): the original variable-latency adder.
// Its carry speculation is the simple static zero (it relies on the
// rarity of long carry chains); what it pioneered — detection and
// multi-cycle correction — is shared by every design in this
// repository's framework. It is kept as a named design so sweeps can
// reference the lineage explicitly.
func NewVLSA(g Geometry) Predictor {
	return &staticPredictor{g: g, name: "VLSA"}
}
