package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"st2gpu/internal/obs"
)

// Span names the benchmark records around its calls into the program.
// A traced pass is one "pass" root span (attributes workload and pass);
// suite_sim nests a "kernel" span per launch; every other span wraps
// exactly one call into a layer. The root and "kernel" spans hold no
// layer call of their own, so their self time is benchmark glue.
const (
	spanPass   = "pass"
	spanKernel = "kernel"
)

// layer runs fn inside a child span of parent named name. With a nil
// parent (an untraced pass) it just runs fn.
func layer(parent *obs.ActiveSpan, name string, fn func() error) error {
	sp := parent.Child(name)
	err := fn()
	sp.End()
	return err
}

// passSelf is the per-pass layer breakdown of one traced pass.
type passSelf struct {
	workload string
	total    time.Duration            // duration of the pass root span
	self     map[string]time.Duration // span name -> summed self time
}

// selfTimes derives each traced pass's per-layer self time from the
// recorded spans: a span's self time is its duration minus the part of
// that interval its direct children cover, summed per span name over
// all spans of the pass. Passes are returned in pass-id order.
func selfTimes(spans []obs.Span) []passSelf {
	byID := make(map[obs.SpanID]*obs.Span, len(spans))
	kids := make(map[obs.SpanID][]*obs.Span)
	for i := range spans {
		s := &spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	passes := make(map[obs.SpanID]*passSelf)
	var order []obs.SpanID
	passID := make(map[obs.SpanID]int64)
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || s.Name != spanPass {
			continue
		}
		ps := &passSelf{total: s.Dur, self: map[string]time.Duration{}}
		for _, a := range s.Attrs {
			switch a.Key {
			case "workload":
				ps.workload, _ = a.Value.(string)
			case "pass":
				passID[s.ID], _ = a.Value.(int64)
			}
		}
		passes[s.ID] = ps
		order = append(order, s.ID)
	}
	root := func(s *obs.Span) obs.SpanID {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				return 0
			}
			s = p
		}
		return s.ID
	}
	for i := range spans {
		s := &spans[i]
		ps, ok := passes[root(s)]
		if !ok {
			continue
		}
		ps.self[s.Name] += s.Dur - covered(s, kids[s.ID])
	}
	sort.Slice(order, func(i, j int) bool { return passID[order[i]] < passID[order[j]] })
	out := make([]passSelf, len(order))
	for i, id := range order {
		out[i] = *passes[id]
	}
	return out
}

// covered returns how much of parent's interval the union of children
// covers.
func covered(parent *obs.Span, children []*obs.Span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	lo, hi := parent.Start, parent.Start+parent.Dur
	for _, c := range children {
		s, e := c.Start, c.Start+c.Dur
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if e > s {
			iv = append(iv, [2]time.Duration{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var cs, ce time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > ce {
			sum += ce - cs
			cs, ce = x[0], x[1]
			continue
		}
		if x[1] > ce {
			ce = x[1]
		}
	}
	return sum + ce - cs
}

// layerMedians returns, per span name, the median over passes of the
// per-pass self time in seconds, and the median pass duration.
func layerMedians(passes []passSelf) (map[string]float64, float64) {
	names := map[string]bool{}
	var totals []float64
	for _, p := range passes {
		totals = append(totals, p.total.Seconds())
		for n := range p.self {
			names[n] = true
		}
	}
	out := make(map[string]float64, len(names))
	for n := range names {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p.self[n].Seconds()
		}
		out[n] = median(xs)
	}
	return out, median(totals)
}

// writeSelfTable prints the self-time table of one workload's n traced
// passes: median self seconds per pass (med, from layerMedians) and
// share of the median pass.
func writeSelfTable(w io.Writer, workload string, n int, med map[string]float64, total float64) {
	names := make([]string, 0, len(med))
	for n := range med {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if med[names[i]] != med[names[j]] {
			return med[names[i]] > med[names[j]]
		}
		return names[i] < names[j]
	})
	fmt.Fprintf(w, "self time per pass, %s (median of %d traced passes, pass %.4f s)\n",
		workload, n, total)
	fmt.Fprintf(w, "  %-28s %12s %7s\n", "span", "self_s", "share")
	for _, n := range names {
		label := n
		if n == spanPass || n == spanKernel {
			label = n + " (benchmark glue)"
		}
		fmt.Fprintf(w, "  %-28s %12.6f %6.2f%%\n", label, med[n], 100*med[n]/total)
	}
	fmt.Fprintln(w, "  "+strings.Repeat("-", 49))
}
