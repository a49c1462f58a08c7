package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// tally counts operations attempted and failed. Every layer call of a
// pass and every output check is one operation; a failed operation is a
// layer error, a failed Verify, or a result that differs from what it
// is checked against.
type tally struct {
	attempted, failed int
	errs              []string // the first few failures, for the report
}

// op records one operation's outcome and reports whether it succeeded.
func (t *tally) op(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 8 {
			t.errs = append(t.errs, e)
		}
	}
}

// fingerprint is a pass's modelled results, by check group. Each group
// is compared as one operation. Groups hold only exact results: counts,
// and floats derived from them by fixed-order folds.
type fingerprint map[string]any

// canon marshals each group to compact JSON, the form groups are
// compared and stored in.
func (f fingerprint) canon() (map[string]json.RawMessage, error) {
	out := make(map[string]json.RawMessage, len(f))
	for k, v := range f {
		b, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("fingerprint %s: %w", k, err)
		}
		out[k] = b
	}
	return out, nil
}

// compareGroups checks got against want group by group: every group of
// either side is one operation, failed when missing or different.
func compareGroups(what string, got fingerprint, want map[string]json.RawMessage) tally {
	var t tally
	g, err := got.canon()
	if err != nil {
		t.op(err)
		return t
	}
	keys := map[string]bool{}
	for k := range g {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		gv, gok := g[k]
		wv, wok := want[k]
		switch {
		case !gok:
			t.op(fmt.Errorf("%s: group %s missing from the output", what, k))
		case !wok:
			t.op(fmt.Errorf("%s: group %s has no expected value", what, k))
		default:
			var c bytes.Buffer
			if err := json.Compact(&c, wv); err != nil {
				t.op(fmt.Errorf("%s: group %s: %w", what, k, err))
			} else if !bytes.Equal(c.Bytes(), gv) {
				t.op(fmt.Errorf("%s: group %s differs: got %.200s, want %.200s", what, k, gv, c.Bytes()))
			} else {
				t.op(nil)
			}
		}
	}
	return t
}

// expectedFile holds the modelled results every workload must reproduce
// at one configuration (scale, SMs, seed). It is regenerated with
// -write-expected and committed; a diff to it is a change of modelled
// results that must be explained.
type expectedFile struct {
	Scale     int                                   `json:"scale"`
	NumSMs    int                                   `json:"sms"`
	Seed      int64                                 `json:"seed"`
	Workloads map[string]map[string]json.RawMessage `json:"workloads"`
}

//go:embed expected.json
var expectedJSON []byte

func loadExpected() (expectedFile, error) {
	var ef expectedFile
	if err := json.Unmarshal(expectedJSON, &ef); err != nil {
		return ef, fmt.Errorf("expected.json: %w", err)
	}
	return ef, nil
}

// covers reports whether the file was made at c's configuration.
func (ef expectedFile) covers(c config) bool {
	return ef.Scale == c.scale && ef.NumSMs == c.sms && ef.Seed == c.seed
}

// expectedFor returns the expected groups for a workload at the given
// configuration, or nil when the committed file covers another one.
func expectedFor(workload string, c config) (map[string]json.RawMessage, error) {
	ef, err := loadExpected()
	if err != nil {
		return nil, err
	}
	if !ef.covers(c) {
		return nil, nil
	}
	w, ok := ef.Workloads[workload]
	if !ok {
		return nil, fmt.Errorf("expected.json has no entry for %s", workload)
	}
	return w, nil
}

// writeExpected runs setup and one pass of every workload and writes
// their fingerprints as the expected file for this configuration.
func writeExpected(path string, c config) error {
	ef := expectedFile{Scale: c.scale, NumSMs: c.sms, Seed: c.seed,
		Workloads: map[string]map[string]json.RawMessage{}}
	for _, w := range workloads {
		r, err := w.setup(c)
		if err != nil {
			return fmt.Errorf("%s setup: %w", w.name, err)
		}
		out := r.pass(nil)
		if out.ops.failed > 0 {
			return fmt.Errorf("%s pass failed: %v", w.name, out.ops.errs)
		}
		g, err := out.fp.canon()
		if err != nil {
			return err
		}
		ef.Workloads[w.name] = g
		r.close()
	}
	b, err := json.MarshalIndent(ef, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
