package speculate

import (
	"testing"

	"st2gpu/internal/bitmath"
)

// Context identifies one dynamic operation to a scalar model: where it is
// in the program (PC), who executes it (thread ids) and what flows through
// the datapath (the effective operands after the subtraction transform).
type Context struct {
	PC   uint32 // static instruction index
	Gtid uint32 // global thread id
	Ltid uint8  // lane within the warp, 0..31
	EA   uint64 // effective operand 1
	EB   uint64 // effective operand 2 (ones'-complemented for subtraction)
	Cin0 uint   // injected carry into slice 0 (1 for subtraction)
}

// oneLane returns the warp coordinates of ctx as the only active lane:
// lane ctx.Ltid of the warp whose lane 0 is thread ctx.Gtid−ctx.Ltid
// (uint32 arithmetic wraps, so base+lane is ctx.Gtid for every id).
func oneLane(ctx Context) (base, active, cin uint32) {
	l := uint32(ctx.Ltid & 31)
	return ctx.Gtid - l, 1 << l, uint32(ctx.Cin0&1) << l
}

// predictOne runs p's warp form on a one-lane warp.
func predictOne(p Predictor, ctx Context) Prediction {
	base, active, cin := oneLane(ctx)
	var c, s [1]uint64
	p.PredictWarp(ctx.PC, base, active, cin, []uint64{ctx.EA}, []uint64{ctx.EB}, c[:], s[:])
	return Prediction{Carries: c[0], Static: s[0]}
}

// updateOne delivers one lane's true carries through p's warp form.
func updateOne(p Predictor, ctx Context, actual uint64, mispredicted bool) {
	base, active, cin := oneLane(ctx)
	var mispred uint32
	if mispredicted {
		mispred = active
	}
	p.UpdateWarp(ctx.PC, base, active, mispred, cin, []uint64{ctx.EA}, []uint64{ctx.EB}, []uint64{actual})
}

// scalarModel is the per-thread reference semantics of a design: one
// Predict per lane, all from the pre-update state, then one Update per
// lane in ascending lane order. The warp forms must match it bit for bit.
type scalarModel interface {
	Predict(ctx Context) Prediction
	Update(ctx Context, actual uint64, mispredicted bool)
}

// scalarOf builds the scalar reference model of a design instance, with
// fresh (cold) state.
func scalarOf(t *testing.T, p Predictor) scalarModel {
	t.Helper()
	switch p := p.(type) {
	case *staticPredictor:
		return refStatic{v: p.value & p.g.BoundaryMask()}
	case *peekPredictor:
		return refPeek{g: p.g, inner: scalarOf(t, p.inner)}
	case *History:
		return &refHistory{cfg: p.cfg, table: map[uint64]uint64{}}
	case *History2:
		return &refHistory2{cfg: p.cfg, last: map[uint64]uint64{}, prev2: map[uint64]uint64{}}
	case *VaLHALLA:
		return &refVaLHALLA{g: p.g, bits: map[uint32]uint8{}}
	case *CASA:
		return refCASA{g: p.G}
	case *Oracle:
		return refOracle{g: p.G}
	default:
		t.Fatalf("no scalar model for %T", p)
		return nil
	}
}

// refStatic predicts the same boundary carries for every operation.
type refStatic struct{ v uint64 }

func (s refStatic) Predict(Context) Prediction { return Prediction{Carries: s.v} }
func (refStatic) Update(Context, uint64, bool) {}

// refPeek resolves agreeing slice MSBs statically, with the per-boundary
// walk, and defers every other boundary to the inner model.
type refPeek struct {
	g     Geometry
	inner scalarModel
}

func (p refPeek) Predict(ctx Context) Prediction {
	static, values := peekBitsRef(p.g, ctx.EA, ctx.EB)
	dyn := p.inner.Predict(ctx)
	return Prediction{Carries: (dyn.Carries &^ static) | values, Static: static | dyn.Static}
}

func (p refPeek) Update(ctx Context, actual uint64, mispredicted bool) {
	p.inner.Update(ctx, actual, mispredicted)
}

// historyKey is the (folded PC, thread) bucket of a Prev-family table.
func historyKey(cfg HistoryConfig, ctx Context) uint64 {
	var pcPart uint64
	switch cfg.PCMode {
	case ModPC:
		pcPart = uint64(ctx.PC) & bitmath.Mask(cfg.PCBits)
	case FullPC:
		pcPart = uint64(ctx.PC)
	case XorPC:
		for pc := uint64(ctx.PC); pc != 0; pc >>= cfg.PCBits {
			pcPart ^= pc & bitmath.Mask(cfg.PCBits)
		}
	}
	switch cfg.Threads {
	case ByLtid:
		return pcPart<<5 | uint64(ctx.Ltid&31)
	case ByGtid:
		return pcPart<<32 | uint64(ctx.Gtid)
	default:
		return pcPart
	}
}

// refHistory is the depth-1 Prev table as one map: the previous carries
// of the bucket, written only on a misprediction unless AlwaysUpdate.
type refHistory struct {
	cfg   HistoryConfig
	table map[uint64]uint64
}

func (h *refHistory) Predict(ctx Context) Prediction {
	return Prediction{Carries: h.table[historyKey(h.cfg, ctx)] & h.cfg.Geometry.BoundaryMask()}
}

func (h *refHistory) Update(ctx Context, actual uint64, mispredicted bool) {
	if !mispredicted && !h.cfg.AlwaysUpdate {
		return
	}
	h.table[historyKey(h.cfg, ctx)] = actual & h.cfg.Geometry.BoundaryMask()
}

// refHistory2 is the depth-2 table: the agreed bit where the two
// histories agree, the older one where they disagree.
type refHistory2 struct {
	cfg         HistoryConfig
	last, prev2 map[uint64]uint64
}

func (h *refHistory2) Predict(ctx Context) Prediction {
	k := historyKey(h.cfg, ctx)
	last, old := h.last[k], h.prev2[k]
	agree := ^(last ^ old)
	return Prediction{Carries: ((last & agree) | (old &^ agree)) & h.cfg.Geometry.BoundaryMask()}
}

func (h *refHistory2) Update(ctx Context, actual uint64, mispredicted bool) {
	if !mispredicted && !h.cfg.AlwaysUpdate {
		return
	}
	k := historyKey(h.cfg, ctx)
	h.prev2[k] = h.last[k]
	h.last[k] = actual & h.cfg.Geometry.BoundaryMask()
}

// refVaLHALLA broadcasts one bit per thread: the majority of the boundary
// carries of that thread's previous operation.
type refVaLHALLA struct {
	g    Geometry
	bits map[uint32]uint8
}

func (v *refVaLHALLA) Predict(ctx Context) Prediction {
	if v.bits[ctx.Gtid] == 1 {
		return Prediction{Carries: v.g.BoundaryMask()}
	}
	return Prediction{}
}

func (v *refVaLHALLA) Update(ctx Context, actual uint64, _ bool) {
	ones := bitmath.PopCount64(actual & v.g.BoundaryMask())
	v.bits[ctx.Gtid] = 0
	if 2*ones >= int(v.g.Boundaries())+1 {
		v.bits[ctx.Gtid] = 1
	}
}

// refCASA predicts a carry out of every slice with at least one operand
// MSB set.
type refCASA struct{ g Geometry }

func (c refCASA) Predict(ctx Context) Prediction {
	var carries uint64
	or := ctx.EA | ctx.EB
	for i := uint(0); i < c.g.Boundaries(); i++ {
		carries |= (or >> ((i+1)*c.g.SliceBits - 1) & 1) << i
	}
	return Prediction{Carries: carries}
}

func (refCASA) Update(Context, uint64, bool) {}

// refOracle predicts the exact carries, all resolved.
type refOracle struct{ g Geometry }

func (o refOracle) Predict(ctx Context) Prediction {
	return Prediction{
		Carries: bitmath.BoundaryCarriesPacked(ctx.EA, ctx.EB, ctx.Cin0, o.g.Width, o.g.SliceBits),
		Static:  o.g.BoundaryMask(),
	}
}

func (refOracle) Update(Context, uint64, bool) {}
