// Command st2trace regenerates the paper's value/carry correlation
// analyses: the Figure 2 value-evolution dump for pathfinder and the
// Figure 3 carry-in correlation table.
//
// The adder-op stream behind both reports can be captured once and
// replayed: -record simulates the 23-kernel suite a single time (parallel
// SMs, parallel kernels) and saves the compact recording set; -replay
// answers any report from such a file without re-simulating.
//
// The decode work itself can also be paid once: -store-out decodes the
// suite (recorded fresh, or loaded via -replay) and saves the columnar
// st2gpu.decoded store, which st2dse -store then loads without any
// varint decoding at all.
//
// Usage:
//
//	st2trace -report fig2 [-gtid N] [-points N]
//	st2trace -report fig3 [-scale N]
//	st2trace -record suite.st2rec [-scale N] [-sms N]
//	st2trace -report fig3 -replay suite.st2rec
//	st2trace -replay suite.st2rec -store-out suite.decoded
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"st2gpu/internal/experiments"
	"st2gpu/internal/obs"
	"st2gpu/internal/trace"
)

func main() {
	var (
		report   = flag.String("report", "fig3", "report: fig2 (value evolution) or fig3 (carry correlation)")
		gtid     = flag.Uint("gtid", 37, "thread to trace for fig2")
		points   = flag.Int("points", 30, "points per PC for fig2")
		scale    = flag.Int("scale", 1, "workload scale factor")
		sms      = flag.Int("sms", 2, "simulated SM count")
		record   = flag.String("record", "", "simulate the suite once and save its recording set to this file (no report)")
		replay   = flag.String("replay", "", "answer the report from a recording set saved by -record (no simulation)")
		recCap   = flag.Uint64("record-max-bytes", 0, "per-kernel recording byte cap (0 = default 1 GiB)")
		storeOut = flag.String("store-out", "", "decode the suite once and save the columnar st2gpu.decoded store to this file (no report)")
		storeRaw = flag.Bool("store-compact", false, "omit the derived Sum/Carries columns from -store-out (smaller file, slower loads)")
		workers  = flag.Int("sweep-workers", 0, "worker pool for the fig3 (kernel × scheme) grid (0 = GOMAXPROCS, 1 = sequential; results identical at any count)")
		traceOut = flag.String("trace-out", "", "write a Chrome trace-event JSON timeline of the run to this file")
	)
	flag.Parse()

	cfg := experiments.Default()
	cfg.Scale = *scale
	cfg.NumSMs = *sms
	cfg.RecordMaxBytes = *recCap
	cfg.SweepWorkers = *workers
	if *traceOut != "" {
		cfg.Obs = obs.New()
		defer func() {
			if err := cfg.Obs.WriteChromeTraceFile(*traceOut); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "st2trace: wrote %d spans to %s\n", cfg.Obs.Len(), *traceOut)
		}()
	}

	var set *trace.Set
	if *replay != "" {
		var err error
		if set, err = trace.ReadSetFileLimit(*replay, cfg.RecordMaxBytes); err != nil {
			fatal(err)
		}
	}

	if *record != "" || *storeOut != "" {
		if set == nil {
			var err error
			if set, err = experiments.RecordSuite(cfg); err != nil {
				fatal(err)
			}
		}
		if *record != "" {
			if err := set.WriteFile(*record); err != nil {
				fatal(err)
			}
			fmt.Printf("st2trace: recorded %d kernels (%d warp-add records, %d bytes) to %s\n",
				len(set.Names()), set.NumOps(), set.Bytes(), *record)
		}
		if *storeOut != "" {
			dec, err := trace.DecodeSetTraced(set, cfg.Obs)
			if err != nil {
				fatal(err)
			}
			if err := dec.WriteStoreFileTraced(*storeOut, trace.StoreOptions{OmitDerived: *storeRaw}, cfg.Obs); err != nil {
				fatal(err)
			}
			st, err := os.Stat(*storeOut)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("st2trace: stored %d decoded kernels (%d records, %d lanes, %d bytes) to %s\n",
				len(dec.Names()), dec.NumOps(), dec.NumLanes(), st.Size(), *storeOut)
		}
		return
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer tw.Flush()

	switch *report {
	case "fig2":
		var series []experiments.Fig2Series
		var err error
		if set != nil {
			series, err = experiments.Fig2FromSet(cfg, set, uint32(*gtid), *points)
		} else {
			series, err = experiments.Fig2(cfg, uint32(*gtid), *points)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("pathfinder thread %d: addition results per PC in logical time\n", *gtid)
		for _, s := range series {
			fmt.Fprintf(tw, "PC%d\t", s.PC)
			for _, p := range s.Points {
				fmt.Fprintf(tw, "%d ", p.Value)
			}
			fmt.Fprintln(tw)
		}
	case "fig3":
		var rows []experiments.Fig3Row
		var err error
		if set != nil {
			var dec *trace.Decoded
			dec, err = trace.DecodeSetTraced(set, cfg.Obs)
			if err == nil {
				rows, err = experiments.Fig3FromDecoded(cfg, dec)
			}
		} else {
			rows, err = experiments.Fig3(cfg)
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(tw, "kernel\t%s\t%s\t%s\n",
			trace.Fig3Designs[0], trace.Fig3Designs[1], trace.Fig3Designs[2])
		for _, r := range rows {
			if r.Samples[0] == 0 && r.Samples[1] == 0 && r.Samples[2] == 0 {
				fmt.Fprintf(tw, "%s\t-\t-\t-\n", r.Kernel)
				continue
			}
			fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\n",
				r.Kernel, 100*r.Rates[0], 100*r.Rates[1], 100*r.Rates[2])
		}
		fmt.Fprintln(tw, "\n(paper's averages: 50% / 83% / 89%)")
	default:
		fatal(fmt.Errorf("unknown -report %q", *report))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "st2trace:", err)
	os.Exit(1)
}
