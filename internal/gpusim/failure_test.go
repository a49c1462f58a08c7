package gpusim

import (
	"strings"
	"testing"

	"st2gpu/internal/isa"
	"st2gpu/internal/obs"
)

// Failure injection: the simulator must detect pathological kernels and
// report them as errors rather than hanging or corrupting state.

func TestInfiniteLoopTripsMaxCycles(t *testing.T) {
	b := isa.NewBuilder("spin")
	b.Label("forever")
	b.Bra("forever")
	b.Exit()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.NumSMs = 1
	cfg.MaxCycles = 20000
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 32})
	if err == nil || !strings.Contains(err.Error(), "cycles") {
		t.Fatalf("infinite loop should trip MaxCycles, got %v", err)
	}
}

func TestDivergentBarrierDeadlocks(t *testing.T) {
	// Half the threads exit before the barrier... that is legal (exited
	// threads are excluded). A true deadlock needs threads waiting at a
	// barrier that can never be satisfied: a thread spinning forever while
	// its siblings wait. Build: odd threads loop forever, even threads hit
	// the barrier.
	b := isa.NewBuilder("deadlock")
	tid := b.Reg()
	bit := b.Reg()
	p := b.PredReg()
	b.MovSpecial(tid, isa.SRegTid)
	b.And(isa.U32, bit, isa.R(tid), isa.Imm(1))
	b.Setp(isa.EQ, isa.U32, p, isa.R(bit), isa.Imm(0))
	b.BraTo("even", p, false)
	b.Label("spin")
	b.Bra("spin")
	b.Label("even")
	b.Bar()
	b.Exit()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.NumSMs = 1
	cfg.MaxCycles = 20000
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 64})
	if err == nil {
		t.Fatal("divergent barrier + spin should fail, not hang")
	}
}

func TestBarrierWithExitedThreadsReleases(t *testing.T) {
	// Threads above 16 exit early; the rest barrier twice. Must complete.
	b := isa.NewBuilder("partialbar")
	tid := b.Reg()
	p := b.PredReg()
	b.MovSpecial(tid, isa.SRegTid)
	b.Setp(isa.GE, isa.U32, p, isa.R(tid), isa.Imm(16))
	b.Exit().Guarded(p, false)
	b.Bar()
	b.Bar()
	b.Exit()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.NumSMs = 1
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 2, BlockDim: 64}); err != nil {
		t.Fatalf("barrier with exited threads should release: %v", err)
	}
}

func TestSharedMemoryOutOfBounds(t *testing.T) {
	b := isa.NewBuilder("shmoob")
	r := b.Reg()
	_ = b.Shared(64)
	b.Mov(isa.U64, r, isa.Imm(1<<20))
	b.Ld(isa.Shared, isa.U32, r, isa.R(r))
	b.Exit()
	prog := b.MustBuild()
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 32}); err == nil {
		t.Fatal("out-of-bounds shared access should fail the launch")
	}
}

func TestParamOutOfBounds(t *testing.T) {
	b := isa.NewBuilder("paramoob")
	r := b.Reg()
	b.Ld(isa.Param, isa.U64, r, isa.Imm(64))
	b.Exit()
	prog := b.MustBuild()
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 32, Params: []uint64{1}}); err == nil {
		t.Fatal("param read past the buffer should fail")
	}
}

// A kernel whose threads all exit immediately must terminate cleanly and
// report zero adder activity.
func TestImmediateExit(t *testing.T) {
	b := isa.NewBuilder("empty")
	b.Exit()
	prog := b.MustBuild()
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := d.Launch(&Kernel{Program: prog, GridDim: 4, BlockDim: 256})
	if err != nil {
		t.Fatal(err)
	}
	if rs.MispredictionRate() != 0 {
		t.Error("no adds executed, no mispredictions possible")
	}
	if rs.ThreadInstrs[isa.FUCtrl] != 4*256 {
		t.Errorf("ctrl thread instrs = %d, want one exit per thread", rs.ThreadInstrs[isa.FUCtrl])
	}
}

// A block needing more warps than MaxWarpsPerSM can never be admitted by
// refill; Launch must reject it up front instead of spinning until
// MaxCycles.
func TestBlockWiderThanWarpBudgetFailsFast(t *testing.T) {
	b := isa.NewBuilder("wide")
	b.Exit()
	prog := b.MustBuild()

	cfg := DefaultConfig()
	cfg.NumSMs = 1
	cfg.MaxWarpsPerSM = 4
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	d.SetObs(tr)
	_, err = d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 256})
	if err == nil || !strings.Contains(err.Error(), "needs 8 warps") || !strings.Contains(err.Error(), "MaxWarpsPerSM 4") {
		t.Fatalf("want a warp-budget error naming 8 warps and MaxWarpsPerSM 4, got %v", err)
	}
	if tr.Len() != 0 {
		t.Errorf("rejected launch recorded %d spans; it must fail before simulating", tr.Len())
	}
	// The widest block that fits still launches.
	if _, err := d.Launch(&Kernel{Program: prog, GridDim: 1, BlockDim: 128}); err != nil {
		t.Fatal(err)
	}
}
