package speculate

import (
	"math/bits"
	"strings"
)

// History2 explores the *temporal axis* of the paper's design space
// (Section I: "…along the spatial axis (PC correlation), temporal axis
// (history depth), and history sharing among threads"): a depth-2
// previous-carry table. Each bucket keeps the carries of the last two
// operations; per boundary the prediction is the bit the two histories
// agree on, and the older bit when they disagree.
//
// The paper lands on depth 1 (the plain Prev tables); this implementation
// lets the claim be re-checked — see BenchmarkAblationHistoryDepth.
type History2 struct {
	cfg   HistoryConfig
	last  map[uint64]uint64 // most recent carries
	prev2 map[uint64]uint64 // carries before that
}

// NewHistory2 builds a depth-2 Prev-family predictor.
func NewHistory2(cfg HistoryConfig) (*History2, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &History2{
		cfg:   cfg,
		last:  make(map[uint64]uint64),
		prev2: make(map[uint64]uint64),
	}, nil
}

// Name implements Predictor: the depth-1 name with "Prev" → "Prev2".
func (h *History2) Name() string {
	return strings.Replace(h.cfg.Name(), "Prev", "Prev2", 1)
}

// key is lane l's bucket: the depth-1 History's (PC, thread) bucketing
// in its map layout.
func (h *History2) key(pcPart uint64, gtid uint32, l int) uint64 {
	switch h.cfg.Threads {
	case ByLtid:
		return pcPart<<5 | uint64(l)
	case ByGtid:
		return pcPart<<32 | uint64(gtid)
	default:
		return pcPart
	}
}

// PredictWarp implements Predictor: where the two histories agree,
// predict the agreed bit; where they disagree the stream may be
// alternating (carry toggling every iteration), so predict the older bit
// — i.e., the flip of the most recent one. A pure "predict last" depth-2
// table would be identical to depth 1; the alternation heuristic is what
// extra depth can actually buy.
func (h *History2) PredictWarp(pc, gtidBase, active, _ uint32, _, _, carries, static []uint64) {
	pcPart := h.cfg.pcPart(pc)
	mask := h.cfg.Geometry.BoundaryMask()
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		k := h.key(pcPart, gtidBase+uint32(l), l)
		last, old := h.last[k], h.prev2[k]
		agree := ^(last ^ old)
		carries[j] = ((last & agree) | (old &^ agree)) & mask
		static[j] = 0
		j++
	}
}

// UpdateWarp implements Predictor: each writing lane (the mispredicting
// ones, or all active lanes under AlwaysUpdate) shifts its bucket's
// history, in ascending lane order.
func (h *History2) UpdateWarp(pc, gtidBase, active, mispred, _ uint32, _, _, actual []uint64) {
	write := mispred
	if h.cfg.AlwaysUpdate {
		write = active
	}
	pcPart := h.cfg.pcPart(pc)
	mask := h.cfg.Geometry.BoundaryMask()
	j := 0
	for m := active; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		if write&(1<<l) != 0 {
			k := h.key(pcPart, gtidBase+uint32(l), l)
			h.prev2[k] = h.last[k]
			h.last[k] = actual[j] & mask
		}
		j++
	}
}

// Reset implements Predictor.
func (h *History2) Reset() {
	h.last = make(map[uint64]uint64)
	h.prev2 = make(map[uint64]uint64)
}

// DepthStats reports table occupancy.
func (h *History2) DepthStats() (entries int) { return len(h.last) }
