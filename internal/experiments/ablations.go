package experiments

import (
	"st2gpu/internal/gpusim"
	"st2gpu/internal/kernels"
	"st2gpu/internal/speculate"
	"st2gpu/internal/stats"
	"st2gpu/internal/trace"
)

// AblationResult compares two configurations of the final design.
type AblationResult struct {
	Name     string
	WithRate float64 // misprediction rate with the feature
	SansRate float64 // without it
}

// suiteMissRate runs the whole suite under a device-config mutation and
// returns the average thread misprediction rate. This is the hardware
// ST² path: the in-pipeline CRF's contention, arbitration and capacity
// interact with execution timing, so these ablations genuinely need
// re-simulation and cannot be answered from a recorded stream (contrast
// the predictor-only ablations, which ride Fig5's record-once/replay-many
// path).
func (c Config) suiteMissRate(mut func(*gpusim.Config)) (float64, error) {
	rates := make([]float64, len(kernels.Suite()))
	err := c.forEachKernel(func(i int, w kernels.Workload) error {
		spec, err := w.Build(c.Scale)
		if err != nil {
			return err
		}
		dc := c.deviceConfig(gpusim.ST2Adders)
		mut(&dc)
		d, err := gpusim.New(dc)
		if err != nil {
			return err
		}
		if spec.Setup != nil {
			if err := spec.Setup(d.Memory()); err != nil {
				return err
			}
		}
		rs, err := d.Launch(spec.Kernel)
		if err != nil {
			return err
		}
		rates[i] = rs.MispredictionRate()
		return nil
	})
	if err != nil {
		return 0, err
	}
	return stats.Mean(rates), nil
}

// AblationPeek toggles the Peek static-resolution filter on the hardware
// ST² path (Section IV-B: "Retrofitting VaLHALLA with Peek reduces its
// misprediction rate by 18%" — here applied to the final design).
func AblationPeek(cfg Config) (AblationResult, error) {
	with, err := cfg.suiteMissRate(func(*gpusim.Config) {})
	if err != nil {
		return AblationResult{}, err
	}
	sans, err := cfg.suiteMissRate(func(dc *gpusim.Config) { dc.DisablePeek = true })
	if err != nil {
		return AblationResult{}, err
	}
	return AblationResult{Name: "Peek", WithRate: with, SansRate: sans}, nil
}

// AblationContention compares the hardware CRF (write-back contention,
// random arbitration, 16-entry table) against the idealized contention-
// free predictor the Figure 5 sweep assumes — quantifying what the
// paper's "random arbitration is enough" argument costs.
func AblationContention(cfg Config) (AblationResult, error) {
	hw, err := cfg.suiteMissRate(func(*gpusim.Config) {})
	if err != nil {
		return AblationResult{}, err
	}
	ideal, err := cfg.suiteMissRate(func(dc *gpusim.Config) { dc.UseCRF = false })
	if err != nil {
		return AblationResult{}, err
	}
	// "With" the hardware constraint; "sans" is the idealized table.
	return AblationResult{Name: "CRF contention", WithRate: hw, SansRate: ideal}, nil
}

// AblationSharing contrasts thread-history sharing policies on identical
// operation streams (Fig 5's right half): no disambiguation, Gtid
// isolation, and Ltid lane sharing. Like every Fig5 delegate it records
// each kernel once and replays the designs from the captured stream.
func AblationSharing(cfg Config) ([]Fig5Row, error) {
	return Fig5(cfg, []string{
		"Prev+ModPC4+Peek",
		"Gtid+Prev+ModPC4+Peek",
		"Ltid+Prev+ModPC4+Peek",
	})
}

// AblationXORHash checks the paper's claim that "more complex PC-based
// indexing (e.g., XOR-hash of 4-bit PC chunks) provides no additional
// benefits".
func AblationXORHash(cfg Config) ([]Fig5Row, error) {
	return Fig5(cfg, []string{
		"Ltid+Prev+ModPC4+Peek",
		"Ltid+Prev+XorPC4+Peek",
	})
}

// ApproxRow reports the cost of dropping ST²'s correction pass: the
// fraction of adder results that would simply be wrong under an
// approximate (no-correction) speculative adder, per prediction scheme.
type ApproxRow struct {
	Design       string
	WrongResults float64
	MeanRelError float64
}

// ApproximateAdderStudy runs the suite once and evaluates uncorrected
// speculative addition under staticZero (the assumption of approximate
// adders [10]–[13]), CASA, and ST²'s own predictor — motivating the
// paper's guaranteed-correctness design point. The suite is recorded
// once, decoded once, and the (kernel × design) grid runs on the
// decode-once sweep engine; rates are bit-identical at any
// cfg.SweepWorkers count.
func ApproximateAdderStudy(cfg Config) ([]ApproxRow, error) {
	set, err := RecordSuite(cfg)
	if err != nil {
		return nil, err
	}
	dec, err := trace.DecodeSet(set)
	if err != nil {
		return nil, err
	}
	return approxFromDecoded(cfg, dec, approxDesigns)
}

// approxDesigns are the approximate-adder study's prediction schemes.
var approxDesigns = []string{"staticZero", "CASA", speculate.FinalDesign}

// CRFSizeRow is one point of the CRF-capacity sweep.
type CRFSizeRow struct {
	Entries  int
	MissRate float64
}

// AblationCRFSize sweeps the Carry Register File's entry count (the
// paper's 16-entry PC[3:0] table against smaller and larger tables) on
// the hardware path, quantifying how much PC aliasing the 4-bit index
// actually costs.
func AblationCRFSize(cfg Config, sizes []int) ([]CRFSizeRow, error) {
	if sizes == nil {
		sizes = []int{4, 8, 16, 32, 64}
	}
	out := make([]CRFSizeRow, 0, len(sizes))
	for _, n := range sizes {
		n := n
		rate, err := cfg.suiteMissRate(func(dc *gpusim.Config) { dc.CRFEntries = n })
		if err != nil {
			return nil, err
		}
		out = append(out, CRFSizeRow{Entries: n, MissRate: rate})
	}
	return out, nil
}

// AblationHistoryDepth compares the final design against its depth-2
// variant (the paper's temporal-axis exploration).
func AblationHistoryDepth(cfg Config) ([]Fig5Row, error) {
	return Fig5(cfg, []string{
		"Ltid+Prev+ModPC4+Peek",
		"Ltid+Prev2+ModPC4+Peek",
	})
}
