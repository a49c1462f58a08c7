package gpusim

import (
	"fmt"
	"sort"

	"st2gpu/internal/core"
	"st2gpu/internal/isa"
	"st2gpu/internal/metrics"
	"st2gpu/internal/speculate"
)

// poolKind buckets functional-unit classes into the SM's physical
// execution pipes (Volta-like: per-scheduler INT32/FP32 pipes, shared
// FP64, shared SFU, shared LSU).
type poolKind int

const (
	poolALU poolKind = iota
	poolFP32
	poolFP64
	poolSFU
	poolMEM
	poolNone
	poolCount
)

func poolFor(c isa.FUClass) poolKind {
	switch c {
	case isa.FUAluAdd, isa.FUAluOther, isa.FUIntMul, isa.FUIntDiv:
		return poolALU
	case isa.FUFpAdd, isa.FUFpMul, isa.FUFpDiv:
		return poolFP32
	case isa.FUSfu:
		return poolSFU
	case isa.FUMem:
		return poolMEM
	default:
		return poolNone
	}
}

// SMStats aggregates one SM's activity over a kernel run. The
// per-FU-class instruction counters are dense arrays indexed by FUClass:
// they are bumped once per issued instruction, and an array index is a
// fraction of the map-hash cost that used to sit on that path.
type SMStats struct {
	Cycles         uint64
	WarpInstrs     [isa.NumFUClasses]uint64
	ThreadInstrs   [isa.NumFUClasses]uint64
	RegReads       uint64
	RegWrites      uint64
	SharedAccesses uint64
	ParamAccesses  uint64
	GlobalAccesses uint64 // warp-level global memory instructions
	L2Accesses     uint64
	DRAMAccesses   uint64
	AtomicLaneOps  uint64
	ST2StallCycles uint64
	BarrierWaits   uint64
}

func newSMStats() *SMStats { return &SMStats{} }

// smState is one streaming multiprocessor mid-simulation. Each SM owns
// everything it touches on the hot path — warps, caches, execution units,
// CRF, statistics — so smState.run needs no locks and one launch can run
// its SMs on concurrent worker goroutines; only global memory (striped
// locks inside Memory) is shared between SMs.
type smState struct {
	dev    *Device
	id     int
	kernel *Kernel
	params []byte // kernel params, serialized once per launch (read-only)

	l1 *Cache
	// l2 is this SM's private shard of the L2 model: tags and statistics
	// are per-SM, which keeps the timing simulation deterministic and
	// lock-free under the parallel launch path. Shard stats merge into the
	// device aggregate at fold time; hit rates differ marginally from a
	// truly shared L2, exactly as the old SM-by-SM sequential loop
	// admitted its warm-L2 carry-over did.
	l2 *Cache

	// ST² execution units and speculation source.
	alu32, alu64, fpu, dpu *core.Unit
	crf                    *speculate.CRF
	spec                   core.Speculator
	baselineAdderOps       map[core.UnitKind]uint64

	// Per-warp-add scratch: the lanes handed to the units and the
	// speculator, and the effective operations handed to the tracer and
	// recorder. Both cross an interface or a call boundary by pointer, so
	// as locals they would escape to the heap on every warp add.
	laneOps [32]core.LaneOp
	addOps  [32]WarpAddOp

	// Execution state. warps holds every warp the SM has launched, in
	// launch order; live holds the ascending indices of the warps that
	// have not finished, compacted at the start of each cycle (a warp
	// that exits mid-cycle stays listed, marked done, until then), and
	// resident counts them exactly.
	warps      []*warp
	live       []int32
	resident   int
	blockQueue []int               // global block indices awaiting launch
	liveBlocks map[int]int         // blockIdx → live (not done) warp count
	pools      [poolCount][]uint64 // busy-until per pipe
	lineShift  uint                // log2(LineBytes): global address → cache line

	cycle    uint64
	rrPos    int
	lastWarp int // GTO: the warp that issued most recently (-1 none)
	stats    *SMStats

	// barrierArrived counts, per live block, the warps currently waiting
	// at a barrier. Maintained incrementally (bumped when a warp arrives,
	// entry deleted on release) so releaseBarriers does no per-cycle
	// allocation and is O(blocks-at-barrier), not O(warps).
	barrierArrived map[int]int

	// shard is this SM's private metrics buffer (nil when no registry is
	// installed); written once at the end of run, folded by the device in
	// SM-ID order after all workers join.
	shard *metrics.Shard

	// rec is this SM's private recording shard (nil when no Recorder is
	// installed); appended to lock-free on the execution hot path, folded
	// by the device in SM-ID order after all workers join.
	rec *recShard
}

// units returns the SM's ST² execution units in a fixed fold order.
func (sm *smState) units() []*core.Unit {
	return []*core.Unit{sm.alu32, sm.alu64, sm.fpu, sm.dpu}
}

func (sm *smState) poolPipes(k poolKind) []uint64 { return sm.pools[k] }

// nextFreePipe returns the pipe index with the earliest busy-until time.
func (sm *smState) nextFreePipe(k poolKind) int {
	pipes := sm.pools[k]
	best := 0
	for i := 1; i < len(pipes); i++ {
		if pipes[i] < pipes[best] {
			best = i
		}
	}
	return best
}

// launchBlock instantiates the warps of global block b on this SM.
func (sm *smState) launchBlock(b int) {
	prog := sm.kernel.Program
	threads := sm.kernel.BlockDim
	var shared []byte
	if prog.SharedBytes > 0 {
		shared = make([]byte, prog.SharedBytes)
	}
	nWarps := (threads + 31) / 32
	for wi := 0; wi < nWarps; wi++ {
		lanes := threads - wi*32
		if lanes > 32 {
			lanes = 32
		}
		w := &warp{
			id:        len(sm.warps),
			blockIdx:  b,
			tidBase:   uint32(wi * 32),
			gtidBase:  uint32(b*threads + wi*32),
			nLanes:    lanes,
			regs:      make([]uint64, prog.NumRegs*32),
			preds:     make([]bool, max(prog.NumPreds, 1)*32),
			shared:    shared,
			regReady:  make([]uint64, max(prog.NumRegs, 1)),
			nextIssue: sm.cycle,
		}
		for l := lanes; l < 32; l++ {
			w.pc[l] = -1
		}
		w.lanes = uint32(1<<lanes - 1)
		w.converged = true
		w.refreshMinPC()
		w.readyAt = sm.srcReadyAt(w)
		sm.live = append(sm.live, int32(w.id))
		sm.warps = append(sm.warps, w)
	}
	sm.resident += nWarps
	sm.liveBlocks[b] = nWarps
}

// compactLive drops finished warps from the live list, keeping it
// ascending. The list holds every unfinished warp, so it is longer than
// the resident count exactly when some listed warp has finished.
func (sm *smState) compactLive() {
	if len(sm.live) == sm.resident {
		return
	}
	live := sm.live[:0]
	for _, i := range sm.live {
		if !sm.warps[i].done {
			live = append(live, i)
		}
	}
	sm.live = live
}

// refill launches queued blocks while resources allow.
func (sm *smState) refill() {
	warpsPerBlock := (sm.kernel.BlockDim + 31) / 32
	for len(sm.blockQueue) > 0 &&
		len(sm.liveBlocks) < sm.dev.cfg.MaxBlocksPerSM &&
		sm.resident+warpsPerBlock <= sm.dev.cfg.MaxWarpsPerSM {
		b := sm.blockQueue[0]
		sm.blockQueue = sm.blockQueue[1:]
		sm.launchBlock(b)
	}
}

// releaseBarriers frees blocks whose live warps have all arrived. The
// arrival counts are maintained incrementally by tryIssue (and decayed
// by warp exits through liveBlocks), so the common all-running cycle is
// a single empty-map check with no allocation.
func (sm *smState) releaseBarriers() {
	if len(sm.barrierArrived) == 0 {
		return
	}
	//st2:det-ok per-block effects are disjoint and idempotent: each b releases only its own block's warps, so visit order cannot reach results
	for b, n := range sm.barrierArrived {
		if n == sm.liveBlocks[b] {
			for _, i := range sm.live {
				if w := sm.warps[i]; w.blockIdx == b && w.atBarrier {
					w.atBarrier = false
					if w.nextIssue < sm.cycle+1 {
						w.nextIssue = sm.cycle + 1
					}
					w.readyAt = sm.srcReadyAt(w)
				}
			}
			delete(sm.barrierArrived, b)
		}
	}
}

// srcReadyAt returns the cycle at which the warp's next instruction can
// read all its operands. It depends only on the warp's min-PC, regReady
// and nextIssue, and the scheduler reads it through the warp's readyAt
// cache: every write to those fields (block launch, issue, barrier
// release) must be followed by refreshing readyAt.
func (sm *smState) srcReadyAt(w *warp) uint64 {
	pc := w.minPC()
	if pc < 0 {
		return w.nextIssue
	}
	in := &sm.kernel.Program.Instrs[pc]
	t := w.nextIssue
	for s := 0; s < in.Op.NumSrcs(); s++ {
		o := in.Srcs[s]
		if o.Kind == isa.OpReg && in.Op != isa.OpSelp || (in.Op == isa.OpSelp && s < 2 && o.Kind == isa.OpReg) {
			if r := w.regReady[o.Reg]; r > t {
				t = r
			}
		}
	}
	// Write-after-write / write-after-read on the destination: the warp is
	// in-order, so only the destination's pending latency matters.
	if in.Op.HasDst() {
		if r := w.regReady[in.Dst]; r > t {
			t = r
		}
	}
	return t
}

// earliestIssue computes when warp w could issue, considering scoreboard
// and FU pool availability.
func (sm *smState) earliestIssue(w *warp) uint64 {
	t := w.readyAt
	pc := w.minPC()
	if pc >= 0 {
		pool := poolFor(sm.kernel.Program.Instrs[pc].Op.Class())
		if pool != poolNone {
			pipe := sm.nextFreePipe(pool)
			if b := sm.pools[pool][pipe]; b > t {
				t = b
			}
		}
	}
	return t
}

// tryIssue attempts to issue warp w at the current cycle; reports whether
// it issued.
func (sm *smState) tryIssue(w *warp) (bool, error) {
	if w.done || w.atBarrier || w.readyAt > sm.cycle {
		return false, nil
	}
	// A warp that is not done has a live lane: lanes leave only through
	// EXIT, and the EXIT that retires the last one marks the warp done.
	in := &sm.kernel.Program.Instrs[w.minPC()]
	pool := poolFor(in.Op.Class())
	pipe := -1
	if pool != poolNone {
		pipe = sm.nextFreePipe(pool)
		if sm.pools[pool][pipe] > sm.cycle {
			return false, nil
		}
	}

	res, err := sm.executeStep(w)
	if err != nil {
		return false, err
	}

	// Occupancy and latency, with the ST² misprediction stall.
	occ, lat := res.occupancy, res.latency
	if res.st2Stall {
		occ++
		lat++
		sm.stats.ST2StallCycles++
	}
	if res.memTransactions > 1 {
		extra := uint64(res.memTransactions - 1)
		occ += extra
		lat += extra
	}
	if pipe >= 0 {
		sm.pools[pool][pipe] = sm.cycle + occ
	}
	if res.hasDst {
		w.regReady[res.dstReg] = sm.cycle + lat
		sm.stats.RegWrites += uint64(res.activeLanes)
	}
	sm.stats.RegReads += uint64(res.activeLanes * in.Op.NumSrcs())
	w.nextIssue = sm.cycle + 1
	w.readyAt = sm.srcReadyAt(w)

	// Bookkeeping.
	cls := in.Op.Class()
	sm.stats.WarpInstrs[cls]++
	sm.stats.ThreadInstrs[cls] += uint64(res.activeLanes)
	if res.barrier {
		w.atBarrier = true
		sm.barrierArrived[w.blockIdx]++
		sm.stats.BarrierWaits++
	}
	if res.exited {
		w.done = true
		sm.resident--
		sm.liveBlocks[w.blockIdx]--
		if sm.liveBlocks[w.blockIdx] == 0 {
			delete(sm.liveBlocks, w.blockIdx)
			sm.refill()
		}
	}
	return true, nil
}

// issueCycle runs one cycle's scheduler scan over the warps live at the
// start of the cycle and returns how many warps issued (at most
// SchedulersPerSM). Warps that refill launches during the scan have
// indices at or above n and wait for the next cycle.
//
// LRR visits the live list from the first index ≥ rrPos mod n and wraps,
// which is exactly the order of a modulo scan over all n launched warps
// with the finished ones skipped. GTO first retries the most recent
// issuer, then scans the live list oldest-first.
func (sm *smState) issueCycle() (int, error) {
	live := sm.live
	n := len(sm.warps)
	if len(live) == 0 {
		return 0, nil
	}
	issued, width := 0, sm.dev.cfg.SchedulersPerSM
	greedy := sm.dev.cfg.Scheduler == GTO
	start := 0
	if greedy {
		// GTO: give the most recent issuer first claim on a slot.
		if sm.lastWarp >= 0 && sm.lastWarp < n {
			ok, err := sm.tryIssue(sm.warps[sm.lastWarp])
			if err != nil {
				return 0, err
			}
			if ok {
				issued++
			} else {
				sm.lastWarp = -1
			}
		}
	} else {
		first := int32(sm.rrPos % n)
		start = sort.Search(len(live), func(j int) bool { return live[j] >= first })
	}
	for j := 0; j < len(live) && issued < width; j++ {
		k := start + j
		if k >= len(live) {
			k -= len(live)
		}
		// GTO revisits its most recent issuer here harmlessly: it has
		// either issued this cycle (readyAt is past it) or failed.
		idx := int(live[k])
		ok, err := sm.tryIssue(sm.warps[idx])
		if err != nil {
			return 0, err
		}
		if ok {
			issued++
			if greedy {
				sm.lastWarp = idx
			}
		}
	}
	return issued, nil
}

// warpsAtBarrier counts the unfinished warps waiting at a barrier.
func (sm *smState) warpsAtBarrier() int {
	n := 0
	for _, i := range sm.live {
		if w := sm.warps[i]; !w.done && w.atBarrier {
			n++
		}
	}
	return n
}

// run simulates this SM to completion.
func (sm *smState) run() error {
	sm.refill()
	for {
		if len(sm.liveBlocks) == 0 && len(sm.blockQueue) == 0 {
			break
		}
		if sm.cycle > sm.dev.cfg.MaxCycles {
			return fmt.Errorf("gpusim: SM %d exceeded %d cycles (livelock?)", sm.id, sm.dev.cfg.MaxCycles)
		}
		if sm.crf != nil {
			sm.crf.BeginCycle(sm.cycle)
		}
		sm.compactLive()
		sm.releaseBarriers()

		issued, err := sm.issueCycle()
		if err != nil {
			return err
		}
		sm.rrPos++

		if issued > 0 {
			sm.cycle++
			continue
		}
		// Nothing issuable: fast-forward to the next event.
		next := ^uint64(0)
		anyWaiting := false
		for _, i := range sm.live {
			w := sm.warps[i]
			if w.done || w.atBarrier {
				continue
			}
			anyWaiting = true
			if t := sm.earliestIssue(w); t < next {
				next = t
			}
		}
		if !anyWaiting {
			// Everyone is at a barrier (or done): barriers must be
			// releasable next round; advance one cycle.
			stuck := sm.warpsAtBarrier()
			if stuck > 0 && len(sm.liveBlocks) > 0 {
				sm.cycle++
				// If releaseBarriers cannot free anyone, the kernel has a
				// divergent barrier — detect by re-checking.
				sm.releaseBarriers()
				if sm.warpsAtBarrier() == stuck {
					return fmt.Errorf("gpusim: SM %d: %d warps deadlocked at a barrier", sm.id, stuck)
				}
				continue
			}
			// No live warps but blocks remain queued: refill and continue.
			sm.refill()
			if len(sm.liveBlocks) == 0 && len(sm.blockQueue) == 0 {
				break
			}
			sm.cycle++
			continue
		}
		if next <= sm.cycle {
			next = sm.cycle + 1
		}
		sm.cycle = next
	}
	sm.stats.Cycles = sm.cycle
	sm.publishShard()
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
