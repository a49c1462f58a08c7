package gpusim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"st2gpu/internal/isa"
)

var update = flag.Bool("update", false, "rewrite testdata/sched_timing.json from the current simulator")

const schedGolden = "testdata/sched_timing.json"

// barrierLoopProgram makes the warps of a block reach a barrier at
// different times: each thread spins tid%7 iterations of an add/select
// loop over a global load before writing shared memory, then every
// thread reads a neighbour's slot after the barrier, adds a float and
// stores the result.
func barrierLoopProgram() *isa.Program {
	b := isa.NewBuilder("sched_barrier")
	tid, gtid, n, acc, v, addr, saddr, f := b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg(), b.Reg()
	p, q := b.PredReg(), b.PredReg()
	base := b.Shared(128 * 4)
	b.MovSpecial(tid, isa.SRegTid)
	b.MovSpecial(gtid, isa.SRegGtid)
	b.IMad(isa.U64, addr, isa.R(gtid), isa.Imm(4), isa.Imm(0x4000))
	b.Ld(isa.Global, isa.U32, acc, isa.R(addr))
	b.IRem(isa.U32, n, isa.R(tid), isa.Imm(7))
	b.Setp(isa.EQ, isa.U32, p, isa.R(n), isa.Imm(0))
	b.BraTo("sync", p, false)
	b.Label("spin")
	b.IAdd(isa.U32, acc, isa.R(acc), isa.R(tid))
	b.Setp(isa.GT, isa.U32, q, isa.R(acc), isa.Imm(1000))
	b.Selp(isa.U32, acc, isa.R(n), isa.R(acc), q)
	b.ISub(isa.U32, n, isa.R(n), isa.Imm(1))
	b.Setp(isa.NE, isa.U32, p, isa.R(n), isa.Imm(0))
	b.BraTo("spin", p, false)
	b.Label("sync")
	b.IMad(isa.U64, saddr, isa.R(tid), isa.Imm(4), isa.Imm(base))
	b.St(isa.Shared, isa.U32, isa.R(saddr), isa.R(acc))
	b.Bar()
	b.Xor(isa.U32, n, isa.R(tid), isa.Imm(1))
	b.IMad(isa.U64, saddr, isa.R(n), isa.Imm(4), isa.Imm(base))
	b.Ld(isa.Shared, isa.U32, v, isa.R(saddr))
	b.Cvt(isa.F32, f, isa.R(v), isa.U32)
	b.FAdd(isa.F32, f, isa.R(f), isa.ImmF32(0.75))
	b.IAdd(isa.U64, addr, isa.R(addr), isa.Imm(0x10000))
	b.St(isa.Global, isa.U32, isa.R(addr), isa.R(f))
	b.Exit()
	return b.MustBuild()
}

// TestSchedulerTimingGolden pins the full RunStats of small kernels
// under both scheduler policies, one and four schedulers per SM, and
// both adder modes. The default-config suite fingerprint runs LRR with
// four schedulers only; this golden covers GTO and the single-scheduler
// issue order, with divergence, partial exits, partial last warps and a
// barrier. MaxBlocksPerSM 2 and MaxWarpsPerSM 8 make refill launch
// blocks in the middle of a scheduler scan. Regenerate (and explain the
// diff) with
//
//	go test ./internal/gpusim -run TestSchedulerTimingGolden -update
func TestSchedulerTimingGolden(t *testing.T) {
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
	got := map[string]*RunStats{}
	for _, tc := range cases {
		for _, pol := range []SchedPolicy{LRR, GTO} {
			for _, scheds := range []int{1, 4} {
				for _, mode := range []AdderMode{BaselineAdders, ST2Adders} {
					cfg := DefaultConfig()
					cfg.NumSMs = 2
					cfg.Scheduler = pol
					cfg.SchedulersPerSM = scheds
					cfg.MaxBlocksPerSM = 2
					cfg.MaxWarpsPerSM = 8
					cfg.AdderMode = mode
					d, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					k := tc.k
					k.Program = tc.prog
					rs, err := d.Launch(&k)
					if err != nil {
						t.Fatalf("%s %v/%d/%v: %v", tc.name, pol, scheds, mode, err)
					}
					got[fmt.Sprintf("%s/%v/sched%d/%v", tc.name, pol, scheds, mode)] = rs
				}
			}
		}
	}
	// One run per line, keys sorted, so a diff names the runs that moved.
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, k := range keys {
		line, err := json.Marshal(got[k])
		if err != nil {
			t.Fatal(err)
		}
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&buf, "%q: %s%s\n", k, line, sep)
	}
	buf.WriteString("}\n")
	if *update {
		if err := os.MkdirAll(filepath.Dir(schedGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(schedGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", schedGolden)
		return
	}
	want, err := os.ReadFile(schedGolden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("scheduler timing differs from %s (regenerate with -update only if the change is intended, and explain it):\n%s",
			schedGolden, runDiffs(string(want), buf.String(), 10))
	}
}

// runDiffs lists up to max golden lines (one run each) that differ.
func runDiffs(want, got string, max int) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if n == max {
			b.WriteString("...\n")
			break
		}
		fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, wl, gl)
		n++
	}
	return b.String()
}
