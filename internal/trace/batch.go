package trace

import (
	"fmt"

	"st2gpu/internal/bitmath"
	"st2gpu/internal/core"
	"st2gpu/internal/gpusim"
	"st2gpu/internal/speculate"
)

// warpRec is the canonical flat form of one warp-synchronous record: the
// lane masks plus per-active-lane operands, exact sums and (unmasked)
// boundary carry-outs in ascending lane order — the j-th set bit of
// active owns index j. Both the live AddTracer meters (via warpScratch)
// and the decoded SoA caches (via DecodedKernel views) produce this form
// and run the same per-metric eval steps (batcheval.go).
type warpRec struct {
	kind        core.UnitKind
	pc, base    uint32
	active, cin uint32
	ea, eb, sum []uint64
	carries     []uint64 // 7-boundary carry-outs, kind mask applied at eval
}

// warpScratch compacts the dense [32]WarpAddOp tracer form into a
// warpRec, computing each lane's boundary carry-outs once per record (the
// meters then share them across every design).
type warpScratch struct {
	rec                  warpRec
	ea, eb, sum, carries [32]uint64
}

func (w *warpScratch) compact(kind core.UnitKind, pc, base uint32, ops *[32]gpusim.WarpAddOp) *warpRec {
	var active, cin uint32
	n := 0
	for l := 0; l < 32; l++ {
		op := &ops[l]
		if !op.Active {
			continue
		}
		active |= 1 << l
		cin |= uint32(op.Cin0&1) << l
		w.ea[n], w.eb[n], w.sum[n] = op.EA, op.EB, op.Sum
		w.carries[n] = bitmath.BoundaryCarriesPacked(op.EA, op.EB, op.Cin0, 64, 8)
		n++
	}
	w.rec = warpRec{
		kind: kind, pc: pc, base: base, active: active, cin: cin,
		ea: w.ea[:n], eb: w.eb[:n], sum: w.sum[:n], carries: w.carries[:n],
	}
	return &w.rec
}

// designBatch is the evaluation state of a batch of designs scored
// together over one record stream: the predictors with their Peek
// wrappers stripped, which of them Peek filters, and the per-record lane
// scratch (indexed by compacted lane position j, the j-th set bit of
// active). prepare loads a record once for the whole batch; predict then
// yields one design's prediction. Correctness rests on two invariants:
//
//   - Per-design predictor state is fully independent, so iterating
//     record-major (all designs per record) gives every design the
//     records in stream order with its own pre-update state: a batch of
//     one is the per-design evaluation.
//   - The Peek overlay is hoisted: PeekBitsWarp computes each lane's
//     statically-resolved boundaries once per record, and OverlayPeek
//     applies exactly the Peek composition per design, so stripping the
//     wrapper (SplitPeek) changes nothing bit-wise.
type designBatch struct {
	inner   []speculate.Predictor
	peeked  []bool
	anyPeek bool

	nb                                          uint   // the record's boundary count
	mask                                        uint64 // and its mask
	carries, static, actual, pkStatic, pkValues [32]uint64
}

func newDesignBatch(designs []string) (designBatch, error) {
	b := designBatch{
		inner:  make([]speculate.Predictor, len(designs)),
		peeked: make([]bool, len(designs)),
	}
	for d, name := range designs {
		p, err := speculate.NewDesign(name, g64)
		if err != nil {
			return designBatch{}, fmt.Errorf("trace: design %q: %w", name, err)
		}
		b.inner[d], b.peeked[d] = speculate.SplitPeek(p)
		b.anyPeek = b.anyPeek || b.peeked[d]
	}
	return b, nil
}

// prepare computes what every design of the batch shares on record r:
// the kind-masked true boundary carries and the Peek masks.
func (b *designBatch) prepare(r *warpRec) {
	n := len(r.ea)
	b.nb = boundariesOf(r.kind)
	b.mask = bitmath.Mask(b.nb)
	for j, c := range r.carries {
		b.actual[j] = c & b.mask
	}
	if b.anyPeek {
		speculate.PeekBitsWarp(g64, r.ea, r.eb, b.pkStatic[:n], b.pkValues[:n])
	}
}

// predict returns design d's prediction for every active lane of r, read
// from the design's pre-update state.
func (b *designBatch) predict(d int, r *warpRec) (carries, static []uint64) {
	n := len(r.ea)
	carries, static = b.carries[:n], b.static[:n]
	b.inner[d].PredictWarp(r.pc, r.base, r.active, r.cin, r.ea, r.eb, carries, static)
	if b.peeked[d] {
		speculate.OverlayPeek(carries, static, b.pkStatic[:n], b.pkValues[:n])
	}
	return carries, static
}

// update writes r's true carries back into design d for the lanes in
// write.
func (b *designBatch) update(d int, r *warpRec, write uint32) {
	b.inner[d].UpdateWarp(r.pc, r.base, r.active, write, r.cin, r.ea, r.eb, b.actual[:len(r.ea)])
}
