package speculate

import (
	"fmt"
	"math/bits"
	"strings"

	"st2gpu/internal/bitmath"
)

// ThreadMode selects how a history table disambiguates threads.
type ThreadMode int

const (
	// SharedThreads: one history entry per PC index, shared by every
	// thread ("Prev", "Prev+ModPCk" designs).
	SharedThreads ThreadMode = iota
	// ByLtid: one sub-entry per warp lane (0..31), shared across warps —
	// the paper's final, implementable choice.
	ByLtid
	// ByGtid: fully disambiguated per global thread — the design the paper
	// shows performs *worse* (no constructive sharing) and needs an
	// impractically large table.
	ByGtid
)

func (m ThreadMode) String() string {
	switch m {
	case SharedThreads:
		return "shared"
	case ByLtid:
		return "Ltid"
	case ByGtid:
		return "Gtid"
	default:
		return fmt.Sprintf("ThreadMode(%d)", int(m))
	}
}

// PCMode selects how a history table folds the PC into its index.
type PCMode int

const (
	// NoPC ignores the PC entirely ("Prev": all instructions alias).
	NoPC PCMode = iota
	// ModPC uses the low PCBits bits of the PC ("ModPCk").
	ModPC
	// FullPC uses the entire PC (Fig 3's idealized correlation analysis).
	FullPC
	// XorPC folds the PC by XOR-ing 4-bit chunks down to PCBits bits — the
	// "more complex indexing" the paper reports provides no benefit.
	XorPC
)

func (m PCMode) String() string {
	switch m {
	case NoPC:
		return "noPC"
	case ModPC:
		return "modPC"
	case FullPC:
		return "fullPC"
	case XorPC:
		return "xorPC"
	default:
		return fmt.Sprintf("PCMode(%d)", int(m))
	}
}

// HistoryConfig describes one Prev-family design point.
type HistoryConfig struct {
	Geometry Geometry
	PCMode   PCMode
	PCBits   uint // index bits for ModPC / XorPC
	Threads  ThreadMode
	// AlwaysUpdate writes history after every operation instead of only
	// after mispredictions (an ablation; the hardware updates only
	// mispredicting threads to save CRF write energy).
	AlwaysUpdate bool
}

// Validate reports whether the configuration is coherent.
func (c HistoryConfig) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch c.PCMode {
	case ModPC, XorPC:
		if c.PCBits == 0 || c.PCBits > 16 {
			return fmt.Errorf("speculate: PC index bits %d outside [1,16]", c.PCBits)
		}
	case NoPC, FullPC:
		if c.PCBits != 0 {
			return fmt.Errorf("speculate: PCBits must be 0 for %v", c.PCMode)
		}
	default:
		return fmt.Errorf("speculate: unknown PC mode %v", c.PCMode)
	}
	switch c.Threads {
	case SharedThreads, ByLtid, ByGtid:
	default:
		return fmt.Errorf("speculate: unknown thread mode %v", c.Threads)
	}
	return nil
}

// Name renders the paper's design-space label for this configuration.
func (c HistoryConfig) Name() string {
	var b strings.Builder
	switch c.Threads {
	case ByLtid:
		b.WriteString("Ltid+")
	case ByGtid:
		b.WriteString("Gtid+")
	}
	b.WriteString("Prev")
	switch c.PCMode {
	case ModPC:
		fmt.Fprintf(&b, "+ModPC%d", c.PCBits)
	case FullPC:
		b.WriteString("+FullPC")
	case XorPC:
		fmt.Fprintf(&b, "+XorPC%d", c.PCBits)
	}
	return b.String()
}

// History is the Prev-family predictor: a table of the boundary carry-outs
// produced by previous operations, indexed by (folded PC, thread key).
//
// When the key space is bounded (every PC mode except FullPC, every
// thread mode except ByGtid) the table is a dense flat array indexed by
// the key directly — the batched evaluation kernel then pays one array
// load per lookup instead of a map probe, with identical semantics: a
// never-written slot reads as zero, exactly like a missing map entry.
// ByGtid tables with a bounded PC space use a gtid-major flat table
// grown on demand (gtids are dense small integers in practice), with
// the map kept as overflow for pathological ids. Truly unbounded key
// spaces (FullPC) keep the map alone.
type History struct {
	cfg      HistoryConfig
	dense    []uint64          // flat table; nil when the key space is unbounded
	written  []uint64          // dense-slot occupancy bitmap (backs Entries)
	entries  int               // live dense/grow entries
	growMode bool              // ByGtid with bounded PC: gtid-major grow-on-demand table
	pcBits   uint              // grow-table PC index width (0 for NoPC)
	table    map[uint64]uint64 // packed previous boundary carries (sparse fallback)
}

// maxDenseEntries bounds the eager flat-table allocation; bounded key
// spaces larger than this (e.g. ModPC16+Ltid's 2M slots) fall back to
// the map rather than pinning megabytes per predictor.
const maxDenseEntries = 1 << 16

// maxGrowGtid bounds the grow-on-demand ByGtid table: real launches
// number their global threads densely from zero, so the table covers
// them all; an adversarially huge gtid spills to the map instead of
// sizing a multi-GiB allocation.
const maxGrowGtid = 1 << 22

// denseSize returns the flat-table slot count for a bounded key space,
// or 0 when the keys are unbounded (FullPC PCs, ByGtid thread ids) or
// the bounded space is too large to allocate eagerly.
func (c HistoryConfig) denseSize() uint64 {
	if c.PCMode == FullPC || c.Threads == ByGtid {
		return 0
	}
	size := uint64(1) // NoPC: a single PC bucket
	if c.PCMode == ModPC || c.PCMode == XorPC {
		size = 1 << c.PCBits
	}
	if c.Threads == ByLtid {
		size <<= 5
	}
	if size > maxDenseEntries {
		return 0
	}
	return size
}

// NewHistory builds a Prev-family predictor.
func NewHistory(cfg HistoryConfig) (*History, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &History{cfg: cfg}
	h.Reset()
	return h, nil
}

// Config returns the design point.
func (h *History) Config() HistoryConfig { return h.cfg }

// Name implements Predictor.
func (h *History) Name() string { return h.cfg.Name() }

// Entries returns the number of live table entries (used by the DSE
// commentary on table sizes).
func (h *History) Entries() int {
	if h.growMode {
		return h.entries + len(h.table)
	}
	if h.dense != nil {
		return h.entries
	}
	return len(h.table)
}

// growLimit is the first key past the grow-on-demand table's reach;
// keys at or beyond it live in the overflow map.
func (h *History) growLimit() uint64 { return maxGrowGtid << h.pcBits }

// load reads the table slot for a key; unwritten slots read as zero in
// every representation.
func (h *History) load(key uint64) uint64 {
	if h.growMode {
		if key < uint64(len(h.dense)) {
			return h.dense[key]
		}
		if key >= h.growLimit() {
			return h.table[key]
		}
		return 0 // within reach but never grown to: cold
	}
	if h.dense != nil {
		return h.dense[key]
	}
	return h.table[key]
}

// store writes a table slot, tracking dense occupancy for Entries.
func (h *History) store(key, v uint64) {
	if h.growMode {
		if key >= h.growLimit() {
			h.table[key] = v
			return
		}
		if key >= uint64(len(h.dense)) {
			size := uint64(1) << bits.Len64(key)
			if lim := h.growLimit(); size > lim {
				size = lim
			}
			grown := make([]uint64, size)
			copy(grown, h.dense)
			h.dense = grown
			wr := make([]uint64, (size+63)/64)
			copy(wr, h.written)
			h.written = wr
		}
	}
	if h.dense != nil {
		if h.written[key>>6]&(1<<(key&63)) == 0 {
			h.written[key>>6] |= 1 << (key & 63)
			h.entries++
		}
		h.dense[key] = v
		return
	}
	h.table[key] = v
}

// gtidKey is the ByGtid key for a folded PC and global thread id. The
// grow-on-demand table is gtid-major (gtids are dense small integers,
// so the table stays proportional to the live thread count); the map
// layouts keep the historical pcPart-major packing. Both are injective,
// so the choice is invisible to behavior.
func (h *History) gtidKey(pcPart uint64, gtid uint32) uint64 {
	if h.growMode {
		return uint64(gtid)<<h.pcBits | pcPart
	}
	return pcPart<<32 | uint64(gtid)
}

// pcPart folds the PC into the table index's PC field, once per warp:
// within a warp-synchronous op every lane shares the PC.
func (c HistoryConfig) pcPart(pc uint32) uint64 {
	switch c.PCMode {
	case ModPC:
		return uint64(pc) & bitmath.Mask(c.PCBits)
	case FullPC:
		return uint64(pc)
	case XorPC:
		folded := uint64(0)
		p := uint64(pc)
		for p != 0 {
			folded ^= p & bitmath.Mask(c.PCBits)
			p >>= c.PCBits
		}
		return folded
	default:
		return 0
	}
}

// PredictWarp implements Predictor: the previous carries stored for each
// lane's (PC, thread) bucket, zero when cold. The PC fold happens once
// per warp and shared-thread tables perform a single lookup for all 32
// lanes.
func (h *History) PredictWarp(pc, gtidBase, active, _ uint32, _, _, carries, static []uint64) {
	pcPart := h.cfg.pcPart(pc)
	mask := h.cfg.Geometry.BoundaryMask()
	switch h.cfg.Threads {
	case ByLtid:
		if h.dense != nil {
			// Dense fast path: lane l's slot sits at pcPart<<5|l — 32
			// consecutive array loads, no hashing.
			row := h.dense[pcPart<<5 : pcPart<<5+32]
			j := 0
			for m := active; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				carries[j] = row[l] & mask
				static[j] = 0
				j++
			}
			return
		}
		j := 0
		for m := active; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			carries[j] = h.load(pcPart<<5|uint64(l)) & mask
			static[j] = 0
			j++
		}
	case ByGtid:
		j := 0
		for m := active; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			carries[j] = h.load(h.gtidKey(pcPart, gtidBase+uint32(l))) & mask
			static[j] = 0
			j++
		}
	default: // SharedThreads: one bucket serves the whole warp
		v := h.load(pcPart) & mask
		n := bits.OnesCount32(active)
		for j := 0; j < n; j++ {
			carries[j], static[j] = v, 0
		}
	}
}

// UpdateWarp implements Predictor. The write set is the mispredicting
// lanes (all active lanes under AlwaysUpdate), written in ascending lane
// order so shared buckets keep the sequential loop's last-writer-wins.
func (h *History) UpdateWarp(pc, gtidBase uint32, active, mispred, _ uint32, _, _, actual []uint64) {
	write := mispred
	if h.cfg.AlwaysUpdate {
		write = active
	}
	if write == 0 {
		return
	}
	pcPart := h.cfg.pcPart(pc)
	mask := h.cfg.Geometry.BoundaryMask()
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		if write&(1<<l) != 0 {
			var key uint64
			switch h.cfg.Threads {
			case ByLtid:
				key = pcPart<<5 | uint64(l)
			case ByGtid:
				key = h.gtidKey(pcPart, gtidBase+uint32(l))
			default:
				key = pcPart
			}
			h.store(key, actual[j]&mask)
		}
		j++
	}
}

// Reset implements Predictor.
func (h *History) Reset() {
	h.growMode, h.pcBits = false, 0
	if size := h.cfg.denseSize(); size > 0 {
		h.dense = make([]uint64, size)
		h.written = make([]uint64, (size+63)/64)
		h.entries = 0
		h.table = nil
		return
	}
	h.dense, h.written, h.entries = nil, nil, 0
	h.table = make(map[uint64]uint64)
	if h.cfg.Threads == ByGtid && h.cfg.PCMode != FullPC {
		// Bounded PC space per thread: grow a gtid-major flat table on
		// demand, keeping the map as overflow for pathological gtids.
		h.growMode = true
		if h.cfg.PCMode == ModPC || h.cfg.PCMode == XorPC {
			h.pcBits = h.cfg.PCBits
		}
	}
}
