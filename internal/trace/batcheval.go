package trace

import (
	"math/bits"

	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
)

// This file holds one evaluation step per metric. Each step scores every
// design of its batch on one warp record; the batch kernels run it over
// a decoded kernel's flat arrays (k.each(e.step)) and the streaming
// meters over each compacted tracer record, so the decoded and the live
// evaluations are one engine.

// missEval scores a design batch with Figure 5 semantics.
type missEval struct {
	designBatch
	miss []stats.Rate
}

func newMissEval(designs []string) (*missEval, error) {
	b, err := newDesignBatch(designs)
	if err != nil {
		return nil, err
	}
	return &missEval{designBatch: b, miss: make([]stats.Rate, len(designs))}, nil
}

// step evaluates record r: a lane mispredicts when any non-Peek boundary
// was speculated wrong, and mispredicting lanes write back.
func (e *missEval) step(r *warpRec) {
	e.prepare(r)
	n := len(r.ea)
	actual := e.actual[:n]
	for d := range e.inner {
		carries, static := e.predict(d, r)
		mispred, missed := speculate.JudgeMissWarp(r.active, e.mask, carries, static, actual)
		e.miss[d].Add(missed, uint64(n))
		e.update(d, r, mispred)
	}
}

// corrEval scores a batch of Figure 3 correlation schemes.
type corrEval struct {
	designBatch
	match []stats.Rate
}

func newCorrEval(designs []string) (*corrEval, error) {
	b, err := newDesignBatch(designs)
	if err != nil {
		return nil, err
	}
	return &corrEval{designBatch: b, match: make([]stats.Rate, len(designs))}, nil
}

// step evaluates record r: per-boundary match tallies against the
// pre-update history, then every active lane writes back (the
// correlation analysis compares with the immediately preceding
// operation, so history updates unconditionally).
func (e *corrEval) step(r *warpRec) {
	e.prepare(r)
	n := len(r.ea)
	actual := e.actual[:n]
	for d := range e.inner {
		carries, _ := e.predict(d, r)
		e.match[d].Add(speculate.JudgeCorrWarp(e.nb, e.mask, carries, actual), uint64(e.nb)*uint64(n))
		e.update(d, r, r.active)
	}
}

// approxEval scores a design batch with the approximate-adder
// (no-correction) semantics.
type approxEval struct {
	designBatch
	wrong  []stats.Rate
	relErr []runningMean
}

func newApproxEval(designs []string) (*approxEval, error) {
	b, err := newDesignBatch(designs)
	if err != nil {
		return nil, err
	}
	return &approxEval{
		designBatch: b,
		wrong:       make([]stats.Rate, len(designs)),
		relErr:      make([]runningMean, len(designs)),
	}, nil
}

// step evaluates record r: Peek-resolved boundaries are exact, dynamic
// ones use whatever was predicted, and the uncorrected result is
// compared against the exact sum. Relative errors accumulate in
// ascending lane order (floating-point sums are order-sensitive).
// Mispredicting lanes write back, as in Figure 5.
func (e *approxEval) step(r *warpRec) {
	e.prepare(r)
	width := widthOf(r.kind)
	n := len(r.ea)
	actual := e.actual[:n]
	for d := range e.inner {
		carries, static := e.predict(d, r)
		var wrong uint64
		j := 0
		for m := r.active; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			used := (carries[j] &^ static[j]) | (actual[j] & static[j])
			if got := approxSum(r.ea[j], r.eb[j], uint(r.cin>>l&1), width, used); got != r.sum[j] {
				wrong++
				e.relErr[d].addRelative(got, r.sum[j])
			}
			j++
		}
		e.wrong[d].Add(wrong, uint64(n))
		mispred, _ := speculate.JudgeMissWarp(r.active, e.mask, carries, static, actual)
		e.update(d, r, mispred)
	}
}

// result returns design d's outcome.
func (e *approxEval) result(d int) ApproxResult {
	return ApproxResult{Wrong: e.wrong[d], MeanRelErr: e.relErr[d].mean(), WrongErrSum: e.relErr[d].sum}
}

// EvalMissBatch evaluates a batch of speculation designs over the
// decoded stream in one pass with Figure 5 semantics. Result i is
// bit-identical to a DSEMeter replay's Rate(designs[i]).
func (k *DecodedKernel) EvalMissBatch(designs []string) ([]stats.Rate, error) {
	e, err := newMissEval(designs)
	if err != nil {
		return nil, err
	}
	k.each(e.step)
	return e.miss, nil
}

// EvalCorrBatch evaluates a batch of Figure 3 correlation schemes over
// the decoded stream in one pass. Result i is bit-identical to a
// CorrMeter replay's RawRate(designs[i]).
func (k *DecodedKernel) EvalCorrBatch(designs []string) ([]stats.Rate, error) {
	e, err := newCorrEval(designs)
	if err != nil {
		return nil, err
	}
	k.each(e.step)
	return e.match, nil
}

// EvalApproxBatch evaluates a batch of designs with the
// approximate-adder (no-correction) semantics in one pass. Result i is
// bit-identical to an ApproxMeter replay of designs[i].
func (k *DecodedKernel) EvalApproxBatch(designs []string) ([]ApproxResult, error) {
	e, err := newApproxEval(designs)
	if err != nil {
		return nil, err
	}
	k.each(e.step)
	out := make([]ApproxResult, len(designs))
	for d := range designs {
		out[d] = e.result(d)
	}
	return out, nil
}
