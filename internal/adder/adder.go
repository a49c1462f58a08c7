// Package adder implements the executable microarchitectural model of the
// ST² sliced speculative adder (Section IV-A of the paper), plus the
// reference adder and the carry-select adder it is compared against.
//
// The model is bit-exact and cycle-faithful: an operation completes in one
// cycle when every speculated slice carry-in was correct, and in two cycles
// otherwise, with exactly the slices whose S (suspect) signal is raised
// recomputing on the second cycle — the quantities the paper's energy and
// performance evaluation is built on. Energy is *not* computed here; the
// engine reports slice activity and internal/core prices it using the
// characterization in internal/circuit.
package adder

import (
	"fmt"
	"math/bits"
	"strings"

	"st2gpu/internal/bitmath"
)

// Op selects addition or subtraction. Subtraction is executed, as in the
// hardware, by ones'-complementing the second operand and injecting a
// carry-in of 1 into slice 0.
type Op int

const (
	Add Op = iota
	Sub
)

func (o Op) String() string {
	switch o {
	case Add:
		return "add"
	case Sub:
		return "sub"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Config describes a sliced adder instance.
type Config struct {
	Width     uint // operand width in bits: 64 (ALU), 24 (FP32 mantissa), 52 (FP64 mantissa)
	SliceBits uint // slice width in bits; the paper's design point is 8
}

// Validate reports whether the configuration is supported.
func (c Config) Validate() error {
	if c.Width == 0 || c.Width > 64 {
		return fmt.Errorf("adder: width %d outside (0,64]", c.Width)
	}
	if c.SliceBits == 0 || c.SliceBits > c.Width {
		return fmt.Errorf("adder: slice width %d outside (0,%d]", c.SliceBits, c.Width)
	}
	return nil
}

// NumSlices returns the slice count of the configuration.
func (c Config) NumSlices() uint { return bitmath.NumSlices(c.Width, c.SliceBits) }

// NumBoundaries returns how many carry-ins must be speculated (slices-1).
func (c Config) NumBoundaries() uint {
	n := c.NumSlices()
	if n == 0 {
		return 0
	}
	return n - 1
}

// Result reports everything about one operation on the sliced adder.
type Result struct {
	Sum      uint64 // the (always exact) final result, Width bits
	CarryOut uint   // carry out of the top bit

	Cycles       uint // 1 (all predictions correct) or 2
	Mispredicted bool // at least one speculated boundary was wrong

	// ErrorSlices is the packed E[] signals: bit i-1 set means slice i
	// received a carry-in that differed from the carry slice i-1 actually
	// produced on cycle 1.
	ErrorSlices uint64
	// SuspectSlices is the packed S[] signals: the slices that re-executed
	// on cycle 2 (bit i-1 for slice i). popcount = recompute energy cost.
	SuspectSlices uint64
	// Recomputed is the number of slices that ran a second computation.
	Recomputed int

	// ActualCarries is the packed exact boundary carries (bit i = carry
	// into slice i+1) — what the history table stores for next time.
	ActualCarries uint64
	// Predicted echoes the packed predictions the operation used.
	Predicted uint64
}

// SlicedAdder is a stateless (per-operation) model of the ST² datapath.
// Prediction state lives in internal/speculate; this type turns
// (operands, predictions) into (result, timing, activity).
type SlicedAdder struct {
	cfg Config
	nb  uint // speculated boundaries, NumSlices-1

	// Word masks of the slice geometry, fixed by New. Only slices
	// 0..n-2 feed a speculated boundary, and those are all full width.
	wm   uint64 // Mask(Width)
	bm   uint64 // Mask(nb): one bit per speculated boundary
	msb  uint64 // bit (i+1)·SliceBits−1, the MSB of slice i, for i < nb
	lsb  uint64 // bit i·SliceBits, the LSB of slice i, for i < nb
	body uint64 // the bits of slices 0..nb-1 below their MSBs
}

// New returns a sliced adder for the given configuration.
func New(cfg Config) (*SlicedAdder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &SlicedAdder{cfg: cfg, nb: cfg.NumBoundaries(), wm: bitmath.Mask(cfg.Width)}
	s.bm = bitmath.Mask(s.nb)
	for i := uint(0); i < s.nb; i++ {
		s.msb |= 1 << ((i+1)*cfg.SliceBits - 1)
		s.lsb |= 1 << (i * cfg.SliceBits)
	}
	s.body = bitmath.Mask(s.nb*cfg.SliceBits) &^ s.msb
	return s, nil
}

// Config returns the adder's configuration.
func (s *SlicedAdder) Config() Config { return s.cfg }

// EffectiveOperands applies the subtraction transformation: for Sub, the
// second operand is ones'-complemented and the injected carry-in is 1.
// Predictors peek at these effective operands, exactly as the hardware
// sees them on the slice input registers.
func (s *SlicedAdder) EffectiveOperands(a, b uint64, op Op) (ea, eb uint64, cin0 uint) {
	return effectiveOperands(s.cfg.Width, a, b, op)
}

func effectiveOperands(width uint, a, b uint64, op Op) (ea, eb uint64, cin0 uint) {
	m := bitmath.Mask(width)
	ea = a & m
	switch op {
	case Sub:
		return ea, bitmath.OnesComplement(b, width), 1
	default:
		return ea, b & m, 0
	}
}

// Execute performs one operation. predicted is the packed per-boundary
// carry predictions (bit i = predicted carry into slice i+1); bits above
// NumBoundaries-1 are ignored.
//
// Cycle 1: every slice computes with its predicted carry-in (slice 0 with
// the injected carry). Each slice i>0 then compares its prediction with
// the carry-out slice i-1 actually produced; a mismatch raises E[i].
// S[i] = OR of E[1..i]; all suspect slices recompute on cycle 2 with the
// inverted carry-in, after which — as in a carry-select adder — both
// possibilities are available everywhere and the exact result is selected.
func (s *SlicedAdder) Execute(a, b uint64, op Op, predicted uint64) Result {
	ea, eb, cin0 := s.EffectiveOperands(a, b, op)
	return s.ExecuteEffective(ea, eb, cin0, predicted)
}

// ExecuteEffective is Execute on operands EffectiveOperands has already
// transformed, for callers that computed them anyway (predictors peek at
// the same values). Operand bits above Width are ignored.
//
// The slice datapath is evaluated as word identities over the packed
// boundary vectors rather than slice by slice:
//
//   - the final sum and carry-out are the exact addition;
//   - slice i < n-1 generates a carry-out (G) or propagates its carry-in
//     (P, every bit of ea^eb set) — both read off one SWAR add with the
//     slice MSBs cleared, gathered at bits (i+1)·SliceBits−1;
//   - its cycle-1 carry-out is G | P·(its carry-in), so
//     E = (predicted ^ cout1) masked to the boundaries;
//   - S sets every boundary from E's lowest set bit upward;
//   - the true boundary carries are the carry vector ea^eb^sum gathered
//     at bits i·SliceBits (the slice MSBs of the vector shifted down one).
func (s *SlicedAdder) ExecuteEffective(ea, eb uint64, cin0 uint, predicted uint64) Result {
	k := s.cfg.SliceBits
	ea &= s.wm
	eb &= s.wm
	cin := uint64(cin0 & 1)
	sum, c64 := bits.Add64(ea, eb, cin)

	// Slices 0..n-2 in isolation: t's bit at a slice MSB is the carry into
	// that MSB from the slice's own lower bits (no carry crosses a slice,
	// since the MSBs are cleared).
	x := ea ^ eb
	t := (ea & s.body) + (eb & s.body)
	g := bitmath.GatherSliceMSBs(ea&eb|x&t, k, s.nb)
	p := bitmath.GatherSliceMSBs(x&((x&s.body)+s.lsb), k, s.nb)
	cout1 := g | p&((predicted<<1|cin)&s.bm)
	e := (predicted ^ cout1) & s.bm
	susp := s.bm &^ (e&-e - 1)

	return Result{
		Sum:           sum & s.wm,
		CarryOut:      uint(c64 | sum>>s.cfg.Width&1),
		Cycles:        1 + uint(bitmath.NonZeroBit(e)),
		Mispredicted:  e != 0,
		ErrorSlices:   e,
		SuspectSlices: susp,
		Recomputed:    bits.OnesCount64(susp),
		ActualCarries: bitmath.GatherSliceMSBs((x^sum)>>1, k, s.nb),
		Predicted:     predicted & s.bm,
	}
}

// ExecuteApproximate models an *approximate* speculative adder (the
// error-accepting designs of related work [10]–[13]): it returns the
// cycle-1 result unconditionally in a single cycle, along with whether
// that result happens to be exact. Used by the ablation benches to show
// why the paper insists on correction. Cycle 1 is one SWAR add over all
// slices: slice MSBs cleared so no carry crosses a slice, each slice's
// speculated carry-in placed at its LSB, the MSB sum bits restored by XOR.
func (s *SlicedAdder) ExecuteApproximate(a, b uint64, op Op, predicted uint64) (sum uint64, exact bool) {
	ea, eb, cin0 := s.EffectiveOperands(a, b, op)
	k := s.cfg.SliceBits
	msb := s.msb | 1<<(s.cfg.Width-1)
	body := s.wm &^ msb
	cins := uint64(cin0)
	for i := uint(0); i < s.nb; i++ {
		cins |= (predicted >> i & 1) << ((i + 1) * k)
	}
	out := ((ea & body) + (eb & body) + cins) ^ ((ea ^ eb) & msb)
	return out, out == (ea+eb+uint64(cin0))&s.wm
}

// Reference computes the exact result the full-width reference adder
// produces, for cross-checking.
func (s *SlicedAdder) Reference(a, b uint64, op Op) (sum uint64, cout uint) {
	ea, eb, cin0 := s.EffectiveOperands(a, b, op)
	return bitmath.AddWithCarry(ea, eb, cin0, s.cfg.Width)
}

// Describe renders a cycle-by-cycle narrative of the operation — which
// boundaries were speculated, where the errors surfaced, and which slices
// re-executed. Intended for debugging and teaching; see
// examples/quickstart.
func (r Result) Describe(cfg Config) string {
	nb := cfg.NumBoundaries()
	var b strings.Builder
	fmt.Fprintf(&b, "sum=%#x cout=%d cycles=%d\n", r.Sum, r.CarryOut, r.Cycles)
	fmt.Fprintf(&b, "  predicted carries: %0*b\n", nb, r.Predicted)
	fmt.Fprintf(&b, "  actual carries:    %0*b\n", nb, r.ActualCarries)
	if !r.Mispredicted {
		b.WriteString("  all speculated carry-ins correct: single-cycle completion\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  E (errors):        %0*b\n", nb, r.ErrorSlices)
	fmt.Fprintf(&b, "  S (suspects):      %0*b\n", nb, r.SuspectSlices)
	fmt.Fprintf(&b, "  cycle 2: %d slice(s) re-executed with inverted carry-in\n", r.Recomputed)
	return b.String()
}
