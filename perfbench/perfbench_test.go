package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The tests run from perfbench/, one level below the repository root.
const testRoot = ".."

var update = flag.Bool("update", false, "rewrite reference.json from full-size re-drives at seeds 0 and 1")

// endToEnd lists the untraced run's metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"}, {"launches_per_s", "1/s"}, {"sim_cycles_per_s", "1/s"},
	{"setup_s", "s"}, {"peak_heap_mb", "MiB"}, {"alloc_mb", "MiB"},
}

// short shrinks a workload for the benchmark's own tests: the same
// code paths at a size where the paper's statistical claims no longer
// hold, so the key-recovery threshold is dropped and no golden applies.
func (w workload) short() workload {
	w.samples = 4
	if w.name == "case-fig18" {
		w.samples = 2
	}
	w.golden, w.minRecovered = "", 0
	return w
}

func shortRun(t *testing.T, w workload, trace, tamper bool) *report {
	t.Helper()
	rep, err := run(config{root: testRoot, w: w.short(), seconds: 0.01, trace: trace, tamper: tamper}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return rep
}

// TestShortWorkloads runs every workload at a tiny size, untraced and
// traced, and checks that it passes its own checks and reports every
// metric with its unit.
func TestShortWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep := shortRun(t, w, false, false)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Fatalf("untraced: correct=%v failed=%d attempted=%d", rep.Correct, rep.Failed, rep.Attempted)
			}
			assertMetrics(t, rep, endToEnd)
			for _, m := range endToEnd {
				if rep.Metrics[m.name].Value <= 0 {
					t.Errorf("%s = %g, want > 0", m.name, rep.Metrics[m.name].Value)
				}
			}

			rep = shortRun(t, w, true, false)
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced: correct=%v failed=%d", rep.Correct, rep.Failed)
			}
			assertMetrics(t, rep, perLayer)
			for _, name := range []string{"gpusim.launches", "gpusim.sim_cycles", "kernels.builds", "core.tx", "attack.guess_evals"} {
				if rep.Metrics[name].Value <= 0 {
					t.Errorf("%s = %g, want > 0", name, rep.Metrics[name].Value)
				}
			}
			if w.fleet && rep.Metrics["dist.requests"].Value <= 0 {
				t.Errorf("fleet workload made no requests")
			}
			checkTraceNesting(t, filepath.Join(testRoot, ".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed0.json", w.name)))
		})
	}
}

func assertMetrics(t *testing.T, rep *report, want []struct{ name, unit string }) {
	t.Helper()
	if len(rep.Metrics) != len(want) {
		t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.name]
		if !ok {
			t.Errorf("metric %s missing", m.name)
		} else if got.Unit != m.unit {
			t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
		}
	}
}

// checkTraceNesting reads a written Chrome trace and checks that no
// span starts before or ends after its parent.
func checkTraceNesting(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int `json:"id"`
				Parent int `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	type iv struct{ lo, hi float64 }
	byID := map[int]iv{}
	for _, e := range f.TraceEvents {
		if e.Ph == "X" {
			byID[e.Args.ID] = iv{e.Ts, e.Ts + e.Dur}
		}
	}
	n := 0
	for _, e := range f.TraceEvents {
		p, ok := byID[e.Args.Parent]
		if e.Ph != "X" || !ok {
			continue
		}
		n++
		// Microsecond timestamps are rounded floats: allow 1ns.
		if e.Ts < p.lo-1e-3 || e.Ts+e.Dur > p.hi+1e-3 {
			t.Errorf("span %d [%g, %g] exceeds parent %d [%g, %g]", e.Args.ID, e.Ts, e.Ts+e.Dur, e.Args.Parent, p.lo, p.hi)
		}
	}
	if n == 0 {
		t.Errorf("%s: no child spans", path)
	}
}

// TestFailedCheckCounts corrupts the first pass's output and expects
// the run to report the failure and drop that pass's timings.
func TestFailedCheckCounts(t *testing.T) {
	w, _ := lookupWorkload("sweep-fig15")
	rep := shortRun(t, w, false, true)
	if rep.Correct || rep.Failed < 1 {
		t.Fatalf("tampered run: correct=%v failed=%d, want a counted failure", rep.Correct, rep.Failed)
	}
	assertMetrics(t, rep, endToEnd) // the remaining passes still report
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{id: 1, name: "pass", start: 0, end: 10 * ms},
		{id: 2, parent: 1, name: "cell.a", track: 1, start: 0, end: 8 * ms},
		{id: 3, parent: 2, name: "gpusim.run", track: 1, start: 1 * ms, end: 4 * ms},
		{id: 4, parent: 2, name: "kernels.build", track: 1, start: 3 * ms, end: 5 * ms}, // overlaps gpusim
		{id: 5, parent: 1, name: "cell.b", track: 2, start: 2 * ms, end: 12 * ms},       // overruns the pass
	}
	self := selfTimes(spans)
	if self["gpusim"] != 3*ms || self["kernels"] != 2*ms || self["cell"] != 4*ms+10*ms {
		t.Errorf("self times %v", self)
	}
	if got := nestingViolations(spans); got != 1 {
		t.Errorf("nesting violations = %d, want 1", got)
	}
	a := accountPass(spans[:4], 1)
	if a.capacity != 10*ms || a.idle != 2*ms {
		t.Errorf("account capacity %v idle %v, want 10ms and 2ms", a.capacity, a.idle)
	}
}

// TestReferenceDigests re-drives every workload at its full size for
// benchmark seeds 0 and 1 and compares the outputs and simulated
// counts with reference.json; -update rewrites the file instead.
func TestReferenceDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size re-drives")
	}
	refs, err := references()
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]map[string]reference{}
	for _, w := range workloads {
		got[w.name] = map[string]reference{}
		for _, bs := range []uint64{0, 1} {
			d := &driver{w: w, seed: committedSeed + bs, key: w.options(0).Key}
			res, c, err := d.redrive(openSpan{}, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, bs, err)
			}
			out := output(res)
			if bad := w.invariants(res); len(bad) > 0 {
				t.Errorf("%s seed %d: %s", w.name, bs, strings.Join(bad, "; "))
			}
			if golden, _ := w.goldenCSV(testRoot, bs); golden != "" && golden != out {
				t.Errorf("%s seed %d differs from %s:\n%s", w.name, bs, w.golden, firstDiff(golden, out))
			}
			r := reference{OutputSHA256: digest(out), Counts: c.sim()}
			got[w.name][fmt.Sprint(bs)] = r
			if !*update && refs[w.name][fmt.Sprint(bs)] != r {
				t.Errorf("%s seed %d: got %+v, reference.json has %+v", w.name, bs, r, refs[w.name][fmt.Sprint(bs)])
			}
		}
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("reference.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
