package gpusim

import (
	"fmt"
	"testing"

	"st2gpu/internal/isa"
)

// scanMinPC is the oracle for the warp's min-PC cache: a fresh scan of
// the live lanes, written independently of refreshMinPC.
func scanMinPC(w *warp) int32 {
	best := int32(-1)
	for l := 0; l < w.nLanes; l++ {
		if pc := w.pc[l]; pc >= 0 && (best < 0 || pc < best) {
			best = pc
		}
	}
	return best
}

// divergentLoopProgram nests a lane-dependent loop inside an odd/even
// branch, so lanes split, wait at different PCs and reconverge many
// times.
func divergentLoopProgram() *isa.Program {
	b := isa.NewBuilder("minpc_diverge")
	tid, bit, n, acc, addr := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	p, q := b.PredReg(), b.PredReg()
	b.MovSpecial(tid, isa.SRegGtid)
	b.Mov(isa.U32, acc, isa.Imm(0))
	b.And(isa.U32, bit, isa.R(tid), isa.Imm(1))
	b.Setp(isa.EQ, isa.U32, p, isa.R(bit), isa.Imm(0))
	b.BraTo("even", p, false)
	// Odd lanes loop tid%5+1 times.
	b.IRem(isa.U32, n, isa.R(tid), isa.Imm(5))
	b.IAdd(isa.U32, n, isa.R(n), isa.Imm(1))
	b.Label("loop")
	b.IAdd(isa.U32, acc, isa.R(acc), isa.R(tid))
	b.ISub(isa.U32, n, isa.R(n), isa.Imm(1))
	b.Setp(isa.NE, isa.U32, q, isa.R(n), isa.Imm(0))
	b.BraTo("loop", q, false)
	b.Bra("store")
	b.Label("even")
	b.IAdd(isa.U32, acc, isa.R(tid), isa.Imm(7))
	b.Label("store")
	b.IMad(isa.U64, addr, isa.R(tid), isa.Imm(4), isa.Imm(0x1000))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(acc))
	b.Exit()
	return b.MustBuild()
}

// partialExitProgram retires lanes in three waves: tid ≥ 20 at the first
// guarded exit, odd lanes at the second, the rest at the end.
func partialExitProgram() *isa.Program {
	b := isa.NewBuilder("minpc_exit")
	tid, bit, addr := b.Reg(), b.Reg(), b.Reg()
	p, q := b.PredReg(), b.PredReg()
	b.MovSpecial(tid, isa.SRegTid)
	b.Setp(isa.GE, isa.U32, p, isa.R(tid), isa.Imm(20))
	b.Exit().Guarded(p, false)
	b.And(isa.U32, bit, isa.R(tid), isa.Imm(1))
	b.Setp(isa.NE, isa.U32, q, isa.R(bit), isa.Imm(0))
	b.Exit().Guarded(q, false)
	b.IMad(isa.U64, addr, isa.R(tid), isa.Imm(4), isa.Imm(0x2000))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(tid))
	b.Exit()
	return b.MustBuild()
}

// TestMinPCCacheMatchesLaneScan steps the scheduler cycle by cycle and
// checks after every issue attempt that each warp's cached min-PC equals
// a fresh scan of its lane PCs. Grids larger than MaxBlocksPerSM make
// refill launch blocks mid-run, so block launch is covered too.
func TestMinPCCacheMatchesLaneScan(t *testing.T) {
	cases := []struct {
		name string
		prog *isa.Program
		k    Kernel
	}{
		{"divergent-branch", divergentLoopProgram(), Kernel{GridDim: 6, BlockDim: 64}},
		{"partial-exit", partialExitProgram(), Kernel{GridDim: 3, BlockDim: 64}},
		{"partial-last-warp", divergentLoopProgram(), Kernel{GridDim: 5, BlockDim: 50}},
		{"partial-last-warp-exit", partialExitProgram(), Kernel{GridDim: 2, BlockDim: 45}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NumSMs = 1
			cfg.MaxBlocksPerSM = 2
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			k := tc.k
			k.Program = tc.prog
			sm, err := d.newSM(0, &k, k.serializeParams())
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < k.GridDim; b++ {
				sm.blockQueue = append(sm.blockQueue, b)
			}
			check := func(w *warp, when string) {
				t.Helper()
				if got, want := w.minPC(), scanMinPC(w); got != want {
					t.Fatalf("cycle %d warp %d %s: cached minPC %d, lane scan %d (pcs %v)",
						sm.cycle, w.id, when, got, want, w.pc[:w.nLanes])
				}
			}
			sm.refill()
			steps := 0
			for ; len(sm.liveBlocks) > 0 || len(sm.blockQueue) > 0; sm.cycle++ {
				if sm.cycle > 100000 {
					t.Fatal("kernel did not finish")
				}
				sm.releaseBarriers()
				for i := 0; i < len(sm.warps); i++ {
					w := sm.warps[i]
					check(w, "before issue")
					issued, err := sm.tryIssue(w)
					if err != nil {
						t.Fatal(err)
					}
					if issued {
						steps++
					}
					check(w, "after issue")
				}
			}
			if len(sm.warps) != k.GridDim*((k.BlockDim+31)/32) {
				t.Errorf("launched %d warps, want every block's", len(sm.warps))
			}
			for _, w := range sm.warps {
				if !w.done || w.minPC() != -1 {
					t.Errorf("warp %d finished with done=%v minPC=%d", w.id, w.done, w.minPC())
				}
			}
			if steps == 0 {
				t.Fatal("no instruction issued")
			}
		})
	}
}

// TestSchedulerCachesMatchScan steps the scheduler cycle by cycle and
// checks, after every issue attempt, the caches the issue check reads:
// each unfinished warp's readyAt equals a fresh srcReadyAt, its lane mask
// equals a scan of its live lanes and, when it claims to be converged,
// every live lane is at its min-PC; the resident
// counter equals a count of unfinished warps, and — after the cycle-start
// compaction — the live list is exactly the ascending indices of the
// unfinished warps. MaxBlocksPerSM 2 and MaxWarpsPerSM 8 make refill
// launch blocks mid-cycle, and the barrier kernel covers release.
func TestSchedulerCachesMatchScan(t *testing.T) {
	cases := []struct {
		name string
		prog *isa.Program
		k    Kernel
	}{
		{"divergent-branch", divergentLoopProgram(), Kernel{GridDim: 6, BlockDim: 64}},
		{"partial-exit", partialExitProgram(), Kernel{GridDim: 3, BlockDim: 64}},
		{"partial-last-warp", divergentLoopProgram(), Kernel{GridDim: 5, BlockDim: 50}},
		{"barrier", barrierLoopProgram(), Kernel{GridDim: 5, BlockDim: 96}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.NumSMs = 1
			cfg.MaxBlocksPerSM = 2
			cfg.MaxWarpsPerSM = 8
			d, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			k := tc.k
			k.Program = tc.prog
			sm, err := d.newSM(0, &k, k.serializeParams())
			if err != nil {
				t.Fatal(err)
			}
			for b := 0; b < k.GridDim; b++ {
				sm.blockQueue = append(sm.blockQueue, b)
			}
			check := func(when string) {
				t.Helper()
				resident := 0
				for _, w := range sm.warps {
					if w.done {
						continue
					}
					resident++
					if got, want := w.readyAt, sm.srcReadyAt(w); got != want {
						t.Fatalf("cycle %d warp %d %s: cached readyAt %d, fresh srcReadyAt %d",
							sm.cycle, w.id, when, got, want)
					}
					var lanes uint32
					converged := true
					for l := 0; l < w.nLanes; l++ {
						if w.pc[l] >= 0 {
							lanes |= 1 << l
							converged = converged && w.pc[l] == scanMinPC(w)
						}
					}
					if w.lanes != lanes || w.converged && !converged {
						t.Fatalf("cycle %d warp %d %s: cached lanes %#x converged %v, scan %#x converged %v (pcs %v)",
							sm.cycle, w.id, when, w.lanes, w.converged, lanes, converged, w.pc[:w.nLanes])
					}
				}
				if sm.resident != resident {
					t.Fatalf("cycle %d %s: resident counter %d, scan %d", sm.cycle, when, sm.resident, resident)
				}
			}
			sm.refill()
			steps := 0
			for ; len(sm.liveBlocks) > 0 || len(sm.blockQueue) > 0; sm.cycle++ {
				if sm.cycle > 100000 {
					t.Fatal("kernel did not finish")
				}
				sm.compactLive()
				var want []int32
				for i, w := range sm.warps {
					if !w.done {
						want = append(want, int32(i))
					}
				}
				if fmt.Sprint(sm.live) != fmt.Sprint(want) {
					t.Fatalf("cycle %d: live list %v, unfinished warps %v", sm.cycle, sm.live, want)
				}
				sm.releaseBarriers()
				check("after barrier release")
				for _, i := range sm.live {
					issued, err := sm.tryIssue(sm.warps[i])
					if err != nil {
						t.Fatal(err)
					}
					if issued {
						steps++
					}
					check("after issue")
				}
			}
			if sm.resident != 0 || len(sm.warps) != k.GridDim*((k.BlockDim+31)/32) {
				t.Errorf("finished with resident=%d after %d warps", sm.resident, len(sm.warps))
			}
			if steps == 0 {
				t.Fatal("no instruction issued")
			}
		})
	}
}
