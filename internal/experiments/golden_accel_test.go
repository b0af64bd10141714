package experiments

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"rcoal/internal/gpusim"
)

// This file pins five experiments' reduced-scale CSVs against committed
// goldens. The goldens are written with a trace sink installed, which
// keeps the selective sweep on its per-policy collection path; untraced,
// the sweep collects through copy-on-write prefix forking. For that case
// the comparison is therefore differential, not a self-fulfilling pin: a
// single flipped bit from a fork state leak or sample-assembly drift
// fails it.

// countingSink is a trace sink that only counts the events it receives.
type countingSink struct{ n atomic.Int64 }

func (s *countingSink) Emit(gpusim.Event) { s.n.Add(1) }

// smallGoldenCases spans the Fig-class shapes: raw scatter (fig5), full
// key recovery (fig6), the FSS sweep (fig7), the 1024-line case study
// (fig18), and the selective sweep, forked and traced. golden names the
// testdata/<golden>.golden.csv file a case compares against.
var smallGoldenCases = []struct {
	name, golden string
	slow         bool // skipped under -short (1024-line launches)
	traced       bool // run with a trace sink installed
	run          func(o Options) (CSVer, error)
}{
	{"fig5_small", "fig5_small", false, false, func(o Options) (CSVer, error) { return Fig5(o) }},
	{"fig6_small", "fig6_small", false, false, func(o Options) (CSVer, error) { return Fig6(o) }},
	{"fig7_small", "fig7_small", false, false, func(o Options) (CSVer, error) { return Fig7(o) }},
	{"fig18_small", "fig18_small", true, false, func(o Options) (CSVer, error) {
		o.Samples = 3
		return Fig18(o)
	}},
	{"selective_sweep_small", "selective_sweep_small", false, false, selectiveSweepSmall},
	{"selective_sweep_small_traced", "selective_sweep_small", false, true, selectiveSweepSmall},
}

func selectiveSweepSmall(o Options) (CSVer, error) { return SelectiveSweep(o, []int{2, 4}) }

// TestAcceleratorsPreserveGoldenCSVs runs each case at goldenOptions
// and compares its CSV with the committed golden. A traced case must
// also deliver events to its sink.
func TestAcceleratorsPreserveGoldenCSVs(t *testing.T) {
	for _, tc := range smallGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("1024-line case study is slow; run without -short")
			}
			golden := filepath.Join("testdata", tc.golden+".golden.csv")
			if *updateGolden && tc.name == tc.golden {
				o := goldenOptions()
				o.Trace = new(countingSink)
				res, err := tc.run(o)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(res.CSV()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			o := goldenOptions()
			sink := new(countingSink)
			if tc.traced {
				o.Trace = sink
			}
			res, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.CSV(); got != string(want) {
				t.Errorf("output diverged from golden %s:\n got:\n%s\nwant:\n%s", golden, got, want)
			}
			if tc.traced && sink.n.Load() == 0 {
				t.Error("trace sink received no events")
			}
		})
	}
}
