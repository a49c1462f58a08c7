package main

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"time"

	"st2gpu/internal/experiments"
	"st2gpu/internal/speculate"
	"st2gpu/internal/trace"
)

// evalCostReps is how many times each serial timing below is repeated;
// the median is kept.
const evalCostReps = 3

// designMetric is the per-layer metric name of one design's cost.
// Design names use '+', which metric names may not contain.
func designMetric(design string) string {
	return "speculate." + strings.ReplaceAll(design, "+", "-") + ".ns_per_lane"
}

// evalCost is the per-predictor cost table: every Fig 5 design scored
// alone with EvalMissBatch and every Fig 3 scheme alone with
// EvalCorrBatch, serially over every kernel of the stored suite, and
// the sweep grid's parallel efficiency (serial grid time over grid wall
// time × workers). It runs only in the traced run. The serial grid
// must reproduce the parallel grid's rows; each comparison is one
// operation.
func (d *dseSweep) evalCost(w io.Writer) (map[string]float64, tally, error) {
	var t tally
	h, err := trace.OpenStore(d.storePath, 0)
	if err != nil {
		return nil, t, err
	}
	dec, err := h.LoadKernels(h.Names(), 0)
	if err != nil {
		return nil, t, err
	}
	var ks []*trace.DecodedKernel
	for _, name := range dec.Names() {
		k, _ := dec.Kernel(name)
		ks = append(ks, k)
	}
	lanes := float64(dec.NumLanes())
	m := map[string]float64{}

	timeDesign := func(design string, corr bool) (float64, error) {
		xs := make([]float64, evalCostReps)
		for r := range xs {
			t0 := time.Now()
			for _, k := range ks {
				var err error
				if corr {
					_, err = k.EvalCorrBatch([]string{design})
				} else {
					_, err = k.EvalMissBatch([]string{design})
				}
				if err != nil {
					return 0, err
				}
			}
			xs[r] = float64(time.Since(t0).Nanoseconds())
		}
		return median(xs), nil
	}
	fmt.Fprintf(w, "per-predictor cost, one design at a time over %.0f lanes (median of %d)\n", lanes, evalCostReps)
	fmt.Fprintf(w, "  %-26s %-5s %10s\n", "design", "fig", "ns/lane")
	var missNs, corrNs float64
	for _, design := range speculate.DesignSpace {
		ns, err := timeDesign(design, false)
		if err != nil {
			return nil, t, err
		}
		missNs += ns
		m[designMetric(design)] = ns / lanes
		fmt.Fprintf(w, "  %-26s %-5s %10.3f\n", design, "5", ns/lanes)
	}
	for _, design := range trace.Fig3Designs {
		ns, err := timeDesign(design, true)
		if err != nil {
			return nil, t, err
		}
		corrNs += ns
		m[designMetric(design)] = ns / lanes
		fmt.Fprintf(w, "  %-26s %-5s %10.3f\n", design, "3", ns/lanes)
	}
	m["trace.eval_miss_ns_per_lane_design"] = missNs / (lanes * float64(len(speculate.DesignSpace)))
	m["trace.eval_corr_ns_per_lane_design"] = corrNs / (lanes * float64(len(trace.Fig3Designs)))
	fmt.Fprintf(w, "  Fig 3 total / Fig 5 total serial cost: %.3f\n", corrNs/missNs)

	grid := func(cfg experiments.Config) (float64, fingerprint, error) {
		xs := make([]float64, evalCostReps)
		var fp fingerprint
		for r := range xs {
			t0 := time.Now()
			f5, err := experiments.Fig5FromDecoded(cfg, dec, nil)
			if err != nil {
				return 0, nil, err
			}
			f3, err := experiments.Fig3FromDecoded(cfg, dec)
			if err != nil {
				return 0, nil, err
			}
			xs[r] = time.Since(t0).Seconds()
			fp = fingerprint{"fig5": f5, "fig3": f3}
		}
		return median(xs), fp, nil
	}
	serialCfg := d.c.exp()
	serialCfg.SweepWorkers = 1
	serial, serialFP, err := grid(serialCfg)
	if err != nil {
		return nil, t, err
	}
	par, parFP, err := grid(d.c.exp())
	if err != nil {
		return nil, t, err
	}
	for _, g := range []string{"fig5", "fig3"} {
		if reflect.DeepEqual(serialFP[g], parFP[g]) {
			t.op(nil)
		} else {
			t.op(fmt.Errorf("dse_sweep: %s rows differ between 1 sweep worker and the default pool", g))
		}
	}
	workers := runtime.GOMAXPROCS(0)
	m["experiments.grid_efficiency"] = serial / (par * float64(workers))
	fmt.Fprintf(w, "sweep grid: serial %.4f s, %d workers %.4f s, efficiency %.3f\n",
		serial, workers, par, m["experiments.grid_efficiency"])
	return m, t, nil
}
