package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"rcoal/internal/kernels"
)

// This file pins the accelerator contract at the experiment level: a
// run with every accelerator enabled (trace cache installed, prefix
// forking on) must emit CSVs byte-identical to the committed goldens,
// which are generated with every accelerator OFF (`-update` runs the
// vanilla path). A single flipped bit anywhere — cache key collision,
// fork state leak, sample-assembly drift — fails the comparison.

// accelOptions is goldenOptions with the exact-by-contract
// accelerators switched on.
func accelOptions() Options {
	o := goldenOptions()
	o.TraceCache = kernels.NewTraceCache()
	o.ForkPrefix = true
	return o
}

// accelGoldenCases spans the Fig-class shapes: raw scatter (fig5),
// full key recovery (fig6), the FSS sweep (fig7), the 1024-line case
// study (fig18), and the prefix-forked selective sweep — the only case
// where ForkPrefix changes the execution path rather than being
// ignored.
var accelGoldenCases = []struct {
	name string
	slow bool // skipped under -short (1024-line launches)
	run  func(o Options) (CSVer, error)
}{
	{"fig5_small", false, func(o Options) (CSVer, error) { return Fig5(o) }},
	{"fig6_small", false, func(o Options) (CSVer, error) { return Fig6(o) }},
	{"fig7_small", false, func(o Options) (CSVer, error) { return Fig7(o) }},
	{"fig18_small", true, func(o Options) (CSVer, error) {
		o.Samples = 3
		return Fig18(o)
	}},
	{"selective_sweep_small", false, func(o Options) (CSVer, error) {
		return SelectiveSweep(o, []int{2, 4})
	}},
}

// TestAcceleratorsPreserveGoldenCSVs runs each case with caching and
// forking enabled and compares against the vanilla-generated golden.
func TestAcceleratorsPreserveGoldenCSVs(t *testing.T) {
	for _, tc := range accelGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("1024-line case study is slow; run without -short")
			}
			golden := filepath.Join("testdata", tc.name+".golden.csv")
			if *updateGolden {
				// Goldens come from the vanilla path: no cache, no
				// forking. That is what makes the comparison below a
				// differential test rather than a self-fulfilling pin.
				res, err := tc.run(goldenOptions())
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
			res, err := tc.run(accelOptions())
			if err != nil {
				t.Fatal(err)
			}
			if got := res.CSV(); got != string(want) {
				t.Errorf("accelerated output diverged from vanilla golden %s:\n got:\n%s\nwant:\n%s",
					golden, got, want)
			}
		})
	}
}
