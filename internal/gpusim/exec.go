package gpusim

import (
	"fmt"
	"math"
	"math/bits"

	"st2gpu/internal/adder"
	"st2gpu/internal/core"
	"st2gpu/internal/isa"
)

func f32bits(v float32) uint32     { return math.Float32bits(v) }
func f32fromBits(b uint32) float32 { return math.Float32frombits(b) }
func f64bits(v float64) uint64     { return math.Float64bits(v) }
func f64fromBits(b uint64) float64 { return math.Float64frombits(b) }

// warp is one warp's architectural and scheduling state.
type warp struct {
	id       int
	blockIdx int    // global block index
	gtidBase uint32 // global thread id of lane 0
	tidBase  uint32 // block-local thread id of lane 0
	nLanes   int    // threads actually populated (last warp may be partial)

	pc     [32]int32 // per-thread next instruction; -1 = exited
	minpc  int32     // cached min over live pc lanes; see refreshMinPC
	// lanes marks the threads that have not exited. converged, when set,
	// says every one of them is at minpc, so executeStep needs no lane
	// scan; clear means "unknown" and the next step scans.
	lanes     uint32
	converged bool
	regs   []uint64  // flat: reg*32 + lane
	preds  []bool    // flat: pred*32 + lane
	shared []byte    // block shared memory (shared with sibling warps)

	// Scheduling state.
	regReady  []uint64 // scoreboard: cycle each data register becomes readable
	nextIssue uint64   // in-order issue point
	readyAt   uint64   // cached srcReadyAt; see smState.srcReadyAt
	atBarrier bool
	done      bool
}

func (w *warp) reg(r isa.Reg, lane int) uint64       { return w.regs[int(r)*32+lane] }
func (w *warp) setReg(r isa.Reg, lane int, v uint64) { w.regs[int(r)*32+lane] = v }
func (w *warp) pred(p isa.PReg, lane int) bool       { return w.preds[int(p)*32+lane] }
func (w *warp) setPred(p isa.PReg, lane int, v bool) { w.preds[int(p)*32+lane] = v }

// row returns register r's 32 lane values.
func (w *warp) row(r isa.Reg) []uint64 { return w.regs[int(r)*32 : int(r)*32+32] }

// minPC returns the smallest live PC (SIMT min-PC reconvergence) or -1
// when every thread has exited. It reads the cache that refreshMinPC
// keeps; the scheduler asks several times per warp per cycle, while lane
// PCs change at most once per issued instruction.
func (w *warp) minPC() int32 { return w.minpc }

// refreshMinPC rescans the live lane PCs into the minPC cache. Every
// write to w.pc must leave minpc equal to this scan before minPC is read
// again: by calling it, or by setting minpc when the new minimum is known
// (executeStep does so for converged warps). A write of -1 must also clear
// the lane from w.lanes.
func (w *warp) refreshMinPC() {
	min := int32(-1)
	for m := w.lanes; m != 0; m &= m - 1 {
		if pc := w.pc[bits.TrailingZeros32(m)]; min < 0 || pc < min {
			min = pc
		}
	}
	w.minpc = min
}

// stepResult is what one warp instruction's functional execution reports
// to the timing model.
type stepResult struct {
	class           isa.FUClass
	latency         uint64 // producer→consumer latency
	occupancy       uint64 // cycles the FU pipe stays busy (initiation interval)
	dstReg          isa.Reg
	hasDst          bool
	activeLanes     int
	memTransactions int
	barrier         bool
	exited          bool // every thread gone after this step
	st2Stall        bool // warp pays the misprediction recompute cycle
}

// operand value fetch.
func (sm *smState) operand(w *warp, o isa.Operand, lane int) uint64 {
	switch o.Kind {
	case isa.OpReg:
		return w.reg(o.Reg, lane)
	case isa.OpImm:
		return o.Imm
	case isa.OpSpecial:
		switch o.SReg {
		case isa.SRegTid:
			return uint64(w.tidBase) + uint64(lane)
		case isa.SRegNTid:
			return uint64(sm.kernel.BlockDim)
		case isa.SRegCtaid:
			return uint64(w.blockIdx)
		case isa.SRegNCtaid:
			return uint64(sm.kernel.GridDim)
		case isa.SRegGtid:
			return uint64(w.gtidBase) + uint64(lane)
		case isa.SRegLane:
			return uint64(lane)
		default:
			return 0
		}
	default:
		return 0
	}
}

// truncate narrows a raw 64-bit value to the type's width with the
// type-appropriate extension, the canonical register representation.
func truncate(ty isa.Type, v uint64) uint64 {
	switch ty {
	case isa.U32:
		return uint64(uint32(v))
	case isa.S32:
		return uint64(int64(int32(uint32(v))))
	case isa.F32:
		return uint64(uint32(v))
	default:
		return v
	}
}

// executeStep functionally executes the instruction group at minPC for
// all threads whose PC equals it, advances their PCs, and returns the
// timing facts. Errors indicate simulator bugs or out-of-bounds memory.
func (sm *smState) executeStep(w *warp) (stepResult, error) {
	pc := w.minPC() // ≥ 0: tryIssue steps only unfinished warps
	prog := sm.kernel.Program
	in := &prog.Instrs[pc]
	res := stepResult{class: in.Op.Class(), dstReg: in.Dst, hasDst: in.Op.HasDst()}

	// The execution set: threads at this PC whose guard passes. Threads at
	// this PC with a failing guard still advance their PC. A converged
	// warp has every live thread at pc; otherwise scan for them.
	live, atPC := w.lanes, w.lanes
	if !w.converged {
		atPC = 0
		for m := live; m != 0; m &= m - 1 {
			if l := bits.TrailingZeros32(m); w.pc[l] == pc {
				atPC |= 1 << l
			}
		}
		w.converged = atPC == live
	}
	execMask := atPC
	if in.Guard != isa.NoPred {
		row := w.preds[int(in.Guard)*32:]
		for m := atPC; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if row[l] == in.GuardNeg {
				execMask &^= 1 << l
			}
		}
	}
	res.activeLanes = bits.OnesCount32(execMask)

	// advance moves the threads at pc to pc+1. pc was the minimum live
	// PC and every other live thread sits above it, so pc+1 is the new
	// minimum whether or not the warp is converged, and a converged warp
	// stays converged.
	advance := func() {
		for m := atPC; m != 0; m &= m - 1 {
			w.pc[bits.TrailingZeros32(m)] = pc + 1
		}
		w.minpc = pc + 1
	}

	lat, occ := sm.dev.latency(in.Op)
	res.latency, res.occupancy = lat, occ

	switch in.Op {
	case isa.OpNop:
		advance()

	case isa.OpExit:
		for m := atPC; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if execMask&(1<<l) != 0 {
				w.pc[l] = -1
			} else {
				w.pc[l] = pc + 1
			}
		}
		w.lanes &^= execMask
		switch {
		case execMask != atPC:
			w.minpc = pc + 1 // some threads at pc stayed, and they are lowest
		case atPC == live:
			w.minpc = -1 // every live thread exited
		default:
			w.refreshMinPC()
		}
		res.exited = w.minPC() < 0

	case isa.OpBar:
		advance()
		res.barrier = true

	case isa.OpBra:
		target := int32(in.Target)
		for m := atPC; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if execMask&(1<<l) != 0 {
				w.pc[l] = target
			} else {
				w.pc[l] = pc + 1
			}
		}
		switch {
		case atPC != live:
			w.refreshMinPC() // diverged: other threads wait elsewhere
		case execMask == 0:
			w.minpc = pc + 1
		case execMask == atPC || target == pc+1:
			w.minpc = target
		default:
			// The warp splits between target and pc+1.
			w.minpc = min(target, pc+1)
			w.converged = false
		}

	case isa.OpIAdd, isa.OpISub:
		if err := sm.execIntAddSub(w, uint32(pc), in, execMask, &res); err != nil {
			return res, err
		}
		advance()

	case isa.OpFAdd, isa.OpFSub:
		if err := sm.execFloatAddSub(w, uint32(pc), in, execMask, &res); err != nil {
			return res, err
		}
		advance()

	case isa.OpSetp:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			a := sm.operand(w, in.Srcs[0], l)
			b := sm.operand(w, in.Srcs[1], l)
			w.setPred(in.PDst, l, compare(in.Cmp, in.Type, a, b))
		}
		advance()

	case isa.OpLd, isa.OpSt, isa.OpAtomAdd:
		if err := sm.execMemory(w, in, execMask, &res); err != nil {
			return res, err
		}
		advance()

	default:
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			v, err := evalScalar(sm, w, in, l)
			if err != nil {
				return res, fmt.Errorf("gpusim: %s @%d lane %d: %w", prog.Name, pc, l, err)
			}
			if in.Op.HasDst() {
				w.setReg(in.Dst, l, truncate(in.Type, v))
			}
		}
		advance()
	}
	return res, nil
}

// execIntAddSub routes an integer add/sub through the ST² ALU (or the
// baseline adder in baseline mode).
func (sm *smState) execIntAddSub(w *warp, pc uint32, in *isa.Instr, execMask uint32, res *stepResult) error {
	op := adder.Add
	if in.Op == isa.OpISub {
		op = adder.Sub
	}
	unit := sm.alu32
	if in.Type.Is64() {
		unit = sm.alu64
	}
	lanes := &sm.laneOps
	for m := ^execMask; m != 0; m &= m - 1 {
		lanes[bits.TrailingZeros32(m)] = core.LaneOp{}
	}
	sa, sb := in.Srcs[0], in.Srcs[1]
	var ra, rb []uint64
	if sa.Kind == isa.OpReg {
		ra = w.row(sa.Reg)
	}
	if sb.Kind == isa.OpReg {
		rb = w.row(sb.Reg)
	}
	for m := execMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		var a, b uint64
		if ra != nil {
			a = ra[l]
		} else {
			a = sm.operand(w, sa, l)
		}
		if rb != nil {
			b = rb[l]
		} else {
			b = sm.operand(w, sb, l)
		}
		lanes[l] = core.LaneOp{Active: true, A: a, B: b, Op: op}
	}
	if sm.dev.tracer != nil || sm.rec != nil {
		if err := sm.observeLanes(unit, pc, w, lanes); err != nil {
			return err
		}
	}
	if sm.dev.cfg.AdderMode == ST2Adders {
		wr := unit.ExecuteWarp(sm.spec, pc, w.gtidBase, lanes)
		dst := w.row(in.Dst)
		for m := execMask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dst[l] = truncate(in.Type, wr.Sums[l])
		}
		if wr.Cycles == 2 {
			res.st2Stall = true
		}
		return nil
	}
	// Baseline: exact native arithmetic; count the op for pricing.
	dst := w.row(in.Dst)
	for m := execMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		v := lanes[l].A + lanes[l].B
		if op == adder.Sub {
			v = lanes[l].A - lanes[l].B
		}
		dst[l] = truncate(in.Type, v)
	}
	sm.baselineAdderOps[unit.Kind] += uint64(res.activeLanes)
	return nil
}

// observeLanes reports the warp's effective adder operations — in one
// warp-synchronous batch — to the installed live tracer and/or this SM's
// recording shard. The only error it can return is the recording
// byte-cap tripping.
func (sm *smState) observeLanes(unit *core.Unit, pc uint32, w *warp, lanes *[32]core.LaneOp) error {
	ops := &sm.addOps
	any := false
	for l := range ops {
		if !lanes[l].Active {
			ops[l] = WarpAddOp{}
			continue
		}
		ea, eb, cin0 := unit.Adder().EffectiveOperands(lanes[l].A, lanes[l].B, lanes[l].Op)
		sum, _ := unit.Adder().Reference(lanes[l].A, lanes[l].B, lanes[l].Op)
		ops[l] = WarpAddOp{Active: true, EA: ea, EB: eb, Cin0: cin0, Sum: sum}
		any = true
	}
	if !any {
		return nil
	}
	if sm.dev.tracer != nil {
		sm.dev.tracer.TraceWarpAdds(unit.Kind, pc, w.gtidBase, ops)
	}
	if sm.rec != nil {
		return sm.rec.append(unit.Kind, pc, w.gtidBase, ops)
	}
	return nil
}

// execFloatAddSub: the architectural result is native IEEE; in ST² mode
// the aligned mantissa operation additionally flows through the FPU/DPU
// sliced adder for timing/energy/misprediction accounting.
func (sm *smState) execFloatAddSub(w *warp, pc uint32, in *isa.Instr, execMask uint32, res *stepResult) error {
	is64 := in.Type == isa.F64
	unit := sm.fpu
	if is64 {
		unit = sm.dpu
	}
	lanes := &sm.laneOps
	*lanes = [32]core.LaneOp{}
	for m := execMask; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		a := sm.operand(w, in.Srcs[0], l)
		b := sm.operand(w, in.Srcs[1], l)
		// Architectural result.
		var out uint64
		if is64 {
			x, y := f64fromBits(a), f64fromBits(b)
			if in.Op == isa.OpFSub {
				y = -y
			}
			out = f64bits(x + y)
			if sm.dev.cfg.AdderMode == ST2Adders || sm.dev.tracer != nil || sm.rec != nil {
				if mop, ok := core.MantissaOpF64(x, y); ok {
					lanes[l] = mop
				}
			}
		} else {
			x, y := f32fromBits(uint32(a)), f32fromBits(uint32(b))
			if in.Op == isa.OpFSub {
				y = -y
			}
			out = uint64(f32bits(x + y))
			if sm.dev.cfg.AdderMode == ST2Adders || sm.dev.tracer != nil || sm.rec != nil {
				if mop, ok := core.MantissaOpF32(x, y); ok {
					lanes[l] = mop
				}
			}
		}
		w.setReg(in.Dst, l, out)
	}
	if sm.dev.tracer != nil || sm.rec != nil {
		if err := sm.observeLanes(unit, pc, w, lanes); err != nil {
			return err
		}
	}
	if sm.dev.cfg.AdderMode == ST2Adders {
		wr := unit.ExecuteWarp(sm.spec, pc, w.gtidBase, lanes)
		if wr.Cycles == 2 {
			res.st2Stall = true
		}
	} else {
		sm.baselineAdderOps[unit.Kind] += uint64(res.activeLanes)
	}
	return nil
}

// compare evaluates a SETP comparison.
func compare(cmp isa.CmpOp, ty isa.Type, a, b uint64) bool {
	var lt, eq bool
	switch {
	case ty == isa.F32:
		x, y := f32fromBits(uint32(a)), f32fromBits(uint32(b))
		lt, eq = x < y, x == y
	case ty == isa.F64:
		x, y := f64fromBits(a), f64fromBits(b)
		lt, eq = x < y, x == y
	case ty.IsSigned():
		x, y := int64(a), int64(b)
		if ty == isa.S32 {
			x, y = int64(int32(uint32(a))), int64(int32(uint32(b)))
		}
		lt, eq = x < y, x == y
	default:
		x, y := a, b
		if ty == isa.U32 {
			x, y = uint64(uint32(a)), uint64(uint32(b))
		}
		lt, eq = x < y, x == y
	}
	switch cmp {
	case isa.EQ:
		return eq
	case isa.NE:
		return !eq
	case isa.LT:
		return lt
	case isa.LE:
		return lt || eq
	case isa.GT:
		return !lt && !eq
	case isa.GE:
		return !lt
	default:
		return false
	}
}

// evalScalar executes the non-memory, non-add scalar opcodes for one lane.
func evalScalar(sm *smState, w *warp, in *isa.Instr, l int) (uint64, error) {
	a := sm.operand(w, in.Srcs[0], l)
	var b, c uint64
	if in.Op.NumSrcs() >= 2 {
		b = sm.operand(w, in.Srcs[1], l)
	}
	if in.Op.NumSrcs() >= 3 && in.Op != isa.OpSelp {
		c = sm.operand(w, in.Srcs[2], l)
	}
	ty := in.Type

	// Float helpers.
	fa := func(v uint64) float64 {
		if ty == isa.F32 {
			return float64(f32fromBits(uint32(v)))
		}
		return f64fromBits(v)
	}
	enc := func(v float64) uint64 {
		if ty == isa.F32 {
			return uint64(f32bits(float32(v)))
		}
		return f64bits(v)
	}

	switch in.Op {
	case isa.OpMov:
		return a, nil
	case isa.OpIMin, isa.OpIMax:
		amin := a < b
		if ty.IsSigned() {
			if ty == isa.S32 {
				amin = int32(uint32(a)) < int32(uint32(b))
			} else {
				amin = int64(a) < int64(b)
			}
		} else if ty == isa.U32 {
			amin = uint32(a) < uint32(b)
		}
		if (in.Op == isa.OpIMin) == amin {
			return a, nil
		}
		return b, nil
	case isa.OpAnd:
		return a & b, nil
	case isa.OpOr:
		return a | b, nil
	case isa.OpXor:
		return a ^ b, nil
	case isa.OpNot:
		return ^a, nil
	case isa.OpShl:
		return a << (b & 63), nil
	case isa.OpShr:
		if ty.IsSigned() {
			if ty == isa.S32 {
				return uint64(int32(uint32(a)) >> (b & 31)), nil
			}
			return uint64(int64(a) >> (b & 63)), nil
		}
		if ty == isa.U32 {
			return uint64(uint32(a) >> (b & 31)), nil
		}
		return a >> (b & 63), nil
	case isa.OpAbs:
		if ty == isa.S32 {
			v := int32(uint32(a))
			if v < 0 {
				v = -v
			}
			return uint64(v), nil
		}
		v := int64(a)
		if v < 0 {
			v = -v
		}
		return uint64(v), nil
	case isa.OpSelp:
		if w.pred(isa.PReg(in.Srcs[2].Reg), l) {
			return a, nil
		}
		return b, nil
	case isa.OpCvt:
		return convert(isa.Type(in.Srcs[1].Imm), ty, a), nil
	case isa.OpIMul:
		if ty == isa.S32 || ty == isa.U32 {
			return uint64(uint32(a) * uint32(b)), nil
		}
		return a * b, nil
	case isa.OpIMad:
		if ty == isa.S32 || ty == isa.U32 {
			return uint64(uint32(a)*uint32(b) + uint32(c)), nil
		}
		return a*b + c, nil
	case isa.OpIDiv, isa.OpIRem:
		if b == 0 || (ty == isa.S32 && uint32(b) == 0) || (ty == isa.U32 && uint32(b) == 0) {
			return 0, fmt.Errorf("division by zero")
		}
		switch ty {
		case isa.S32:
			x, y := int32(uint32(a)), int32(uint32(b))
			if in.Op == isa.OpIDiv {
				return uint64(uint32(x / y)), nil
			}
			return uint64(uint32(x % y)), nil
		case isa.U32:
			if in.Op == isa.OpIDiv {
				return uint64(uint32(a) / uint32(b)), nil
			}
			return uint64(uint32(a) % uint32(b)), nil
		case isa.S64:
			if in.Op == isa.OpIDiv {
				return uint64(int64(a) / int64(b)), nil
			}
			return uint64(int64(a) % int64(b)), nil
		default:
			if in.Op == isa.OpIDiv {
				return a / b, nil
			}
			return a % b, nil
		}
	case isa.OpFMul:
		return enc(fa(a) * fa(b)), nil
	case isa.OpFFma:
		return enc(fa(a)*fa(b) + fa(c)), nil
	case isa.OpFDiv:
		return enc(fa(a) / fa(b)), nil
	case isa.OpFMin:
		return enc(math.Min(fa(a), fa(b))), nil
	case isa.OpFMax:
		return enc(math.Max(fa(a), fa(b))), nil
	case isa.OpFNeg:
		return enc(-fa(a)), nil
	case isa.OpFAbs:
		return enc(math.Abs(fa(a))), nil
	case isa.OpSqrt:
		return enc(math.Sqrt(fa(a))), nil
	case isa.OpRsqrt:
		return enc(1 / math.Sqrt(fa(a))), nil
	case isa.OpSin:
		return enc(math.Sin(fa(a))), nil
	case isa.OpCos:
		return enc(math.Cos(fa(a))), nil
	case isa.OpExp2:
		return enc(math.Exp2(fa(a))), nil
	case isa.OpLog2:
		return enc(math.Log2(fa(a))), nil
	case isa.OpRcp:
		return enc(1 / fa(a)), nil
	default:
		return 0, fmt.Errorf("unimplemented opcode %v", in.Op)
	}
}

// convert implements CVT between the numeric types via the natural Go
// conversions.
func convert(from, to isa.Type, v uint64) uint64 {
	// Decode source to a canonical pair (i int64, f float64, isF bool).
	var f float64
	var i int64
	isF := false
	switch from {
	case isa.F32:
		f, isF = float64(f32fromBits(uint32(v))), true
	case isa.F64:
		f, isF = f64fromBits(v), true
	case isa.S32:
		i = int64(int32(uint32(v)))
	case isa.U32:
		i = int64(uint32(v))
	case isa.S64:
		i = int64(v)
	default:
		i = int64(v)
	}
	switch to {
	case isa.F32:
		if isF {
			return uint64(f32bits(float32(f)))
		}
		return uint64(f32bits(float32(i)))
	case isa.F64:
		if isF {
			return f64bits(f)
		}
		return f64bits(float64(i))
	default:
		if isF {
			i = int64(f)
		}
		return truncate(to, uint64(i))
	}
}
