package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/isa"
)

var update = flag.Bool("update", false, "rewrite testdata/suite_fingerprint.json from the current simulator")

const fingerprintGolden = "testdata/suite_fingerprint.json"

// launchFingerprint is the absolute modelled outcome of one kernel
// launch: every count a simulator-core change could move.
type launchFingerprint struct {
	Cycles           uint64            `json:"cycles"`
	PerSMCycles      []uint64          `json:"per_sm_cycles"`
	ThreadInstrs     uint64            `json:"thread_instrs"`
	ClassThreadOps   map[string]uint64 `json:"class_thread_instrs"`
	ClassWarpInstrs  map[string]uint64 `json:"class_warp_instrs"`
	Units            map[string]unitFP `json:"units,omitempty"`
	BaselineAdderOps map[string]uint64 `json:"baseline_adder_ops,omitempty"`
	CRFConflicts     uint64            `json:"crf_conflicts"`
	CRFReads         uint64            `json:"crf_reads"`
	RegReads         uint64            `json:"reg_reads"`
	RegWrites        uint64            `json:"reg_writes"`
	SharedAccesses   uint64            `json:"shared_accesses"`
	AtomicLaneOps    uint64            `json:"atomic_lane_ops"`
	L1               gpusim.CacheStats `json:"l1"`
	L2               gpusim.CacheStats `json:"l2"`
	DRAMAccesses     uint64            `json:"dram_accesses"`
	ST2StallCycles   uint64            `json:"st2_stall_cycles"`
}

type unitFP struct {
	WarpOps          uint64 `json:"warp_ops"`
	StalledWarpOps   uint64 `json:"stalled_warp_ops"`
	ThreadOps        uint64 `json:"thread_ops"`
	Mispredicts      uint64 `json:"mispredicts"`
	RecomputedSlices uint64 `json:"recomputed_slices"`
}

// suiteFingerprint is the golden: per-kernel launches in both adder
// modes plus the headline rows of Figures 3, 5, 6 and 7.
type suiteFingerprint struct {
	Scale    int                          `json:"scale"`
	NumSMs   int                          `json:"sms"`
	Seed     int64                        `json:"seed"`
	Launches map[string]launchFingerprint `json:"launches"`
	Fig3Avg  Fig3Row                      `json:"fig3_average"`
	Fig5     []Fig5Row                    `json:"fig5"`
	Fig6Avg  Fig6Row                      `json:"fig6_average"`
	Fig7     Fig7Summary                  `json:"fig7_summary"`
}

func fingerprintLaunch(rs *gpusim.RunStats) launchFingerprint {
	fp := launchFingerprint{
		Cycles:          rs.Cycles,
		PerSMCycles:     rs.PerSMCycles,
		ThreadInstrs:    rs.TotalThreadInstrs(),
		ClassThreadOps:  map[string]uint64{},
		ClassWarpInstrs: map[string]uint64{},
		CRFConflicts:    rs.CRF.Conflicts,
		CRFReads:        rs.CRF.Reads,
		RegReads:        rs.RegReads,
		RegWrites:       rs.RegWrites,
		SharedAccesses:  rs.SharedAccesses,
		AtomicLaneOps:   rs.AtomicLaneOps,
		L1:              rs.L1,
		L2:              rs.L2,
		DRAMAccesses:    rs.DRAMAccesses,
		ST2StallCycles:  rs.ST2StallCycles,
	}
	for c := isa.FUClass(0); int(c) < isa.NumFUClasses; c++ {
		if n := rs.ThreadInstrs[c]; n != 0 {
			fp.ClassThreadOps[c.String()] = n
		}
		if n := rs.WarpInstrs[c]; n != 0 {
			fp.ClassWarpInstrs[c.String()] = n
		}
	}
	for _, k := range core.UnitKinds {
		if u, ok := rs.Units[k]; ok && u.WarpOps > 0 {
			if fp.Units == nil {
				fp.Units = map[string]unitFP{}
			}
			fp.Units[k.String()] = unitFP{
				WarpOps:          u.WarpOps,
				StalledWarpOps:   u.StalledWarpOps,
				ThreadOps:        u.ThreadOps,
				Mispredicts:      u.ThreadMispredicts,
				RecomputedSlices: u.RecomputedSlices,
			}
		}
		if n := rs.BaselineAdderOps[k]; n != 0 {
			if fp.BaselineAdderOps == nil {
				fp.BaselineAdderOps = map[string]uint64{}
			}
			fp.BaselineAdderOps[k.String()] = n
		}
	}
	return fp
}

// TestSuiteFingerprint pins the suite's absolute results at scale 1,
// 2 SMs, seed 1: every kernel's RunStats under both adder modes and the
// Figure 3/5/6/7 headline rows. Bit-identity tests compare runs with
// each other; this one compares them with the committed golden, so a
// refactor that shifts a cycle count everywhere alike still fails.
// Regenerate (and explain the diff) with
//
//	go test ./internal/experiments -run TestSuiteFingerprint -update
func TestSuiteFingerprint(t *testing.T) {
	cfg := Default()
	got := suiteFingerprint{
		Scale:    cfg.Scale,
		NumSMs:   cfg.NumSMs,
		Seed:     cfg.Seed,
		Launches: map[string]launchFingerprint{},
	}
	for _, mode := range []gpusim.AdderMode{gpusim.BaselineAdders, gpusim.ST2Adders} {
		runs, err := RunSuite(cfg, mode, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range runs {
			got.Launches[rs.Kernel+"/"+mode.String()] = fingerprintLaunch(rs)
		}
	}

	_, dec := suiteStore(t)
	fig3, err := Fig3FromDecoded(cfg, dec)
	if err != nil {
		t.Fatal(err)
	}
	got.Fig3Avg = fig3[len(fig3)-1]
	if got.Fig5, err = Fig5FromDecoded(cfg, dec, nil); err != nil {
		t.Fatal(err)
	}
	fig6, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got.Fig6Avg = fig6[len(fig6)-1]
	if _, got.Fig7, err = Fig7(cfg); err != nil {
		t.Fatal(err)
	}

	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if *update {
		if err := os.MkdirAll(filepath.Dir(fingerprintGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", fingerprintGolden)
		return
	}
	want, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if !bytes.Equal(buf, want) {
		t.Errorf("suite fingerprint differs from %s (regenerate with -update only if the change is intended, and explain it):\n%s",
			fingerprintGolden, lineDiff(string(want), string(buf), 20))
	}
}

// lineDiff lists up to max lines that differ between want and got, by
// line number; enough to name the kernel and field that moved.
func lineDiff(want, got string, max int) string {
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
		fmt.Fprintf(&b, "line %d:\n  want %s\n  got  %s\n", i+1, strings.TrimSpace(wl), strings.TrimSpace(gl))
		n++
	}
	return b.String()
}
