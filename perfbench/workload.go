package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rcoal/internal/aesgpu"
	"rcoal/internal/attack"
	"rcoal/internal/experiments"
	"rcoal/internal/gpusim"
)

// workload is one named benchmark input: an experiment at a fixed
// size, run the way the repository's binaries run it.
type workload struct {
	name    string
	id      string // experiments.Registry id
	samples int
	lines   int
	workers int  // cell workers (1: the experiment is serial)
	fleet   bool // cells lease out through an in-process coordinator
	// golden is the committed CSV under data/ this workload reproduces
	// byte for byte at the committed seed, or "".
	golden string
	// minRecovered is the least number of key bytes the attack must
	// recover with coalescing on at any seed (keyrec-fig6 at the
	// paper's size). Each byte is a statistical guess: at 500 samples
	// 7 of 100 seeds missed one byte and none missed two, so 16/16 is
	// not a property of every seed, while three misses in one seed
	// have odds near 5e-5.
	minRecovered int
}

// workloads are the benchmark's workloads. Why each one exists is in
// README.md; sizes match the committed goldens where one exists.
var workloads = []workload{
	{name: "keyrec-fig6", id: "fig6", samples: 500, lines: 32, workers: 1, minRecovered: 14},
	{name: "sweep-fig15", id: "fig15", samples: 100, lines: 32, workers: 2, golden: "data/fig15.csv"},
	{name: "case-fig18", id: "fig18", samples: 3, lines: 1024, workers: 2},
	{name: "fleet-frontier", id: "ext-defense-frontier", samples: 100, lines: 32, workers: 2, fleet: true,
		golden: "data/ext-defense-frontier.csv"},
}

func lookupWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// committedSeed is the experiment seed the repository's goldens were
// generated with. The benchmark's --seed n selects experiment seed
// committedSeed+n, so seed 0 reproduces data/*.csv.
var committedSeed = experiments.DefaultOptions().Seed

// options are the experiment options one pass runs with.
func (w workload) options(seed uint64) experiments.Options {
	o := experiments.DefaultOptions()
	o.Samples, o.Lines, o.Seed, o.Workers = w.samples, w.lines, seed, w.workers
	return o
}

// output renders a result for comparison: the experiment's CSV, plus
// the recovered-byte counts for keyrec-fig6, whose CSV holds only key
// byte 0.
func output(res experiments.Result) string {
	csv := res.(experiments.CSVer).CSV()
	if f, ok := res.(*experiments.Fig6Result); ok {
		csv += fmt.Sprintf("key_bytes_recovered,%d,%d\n", f.Enabled.KeyBytesRecovered, f.Disabled.KeyBytesRecovered)
	}
	return csv
}

// invariants returns the properties of a result that hold at any seed,
// as a list of violations.
func (w workload) invariants(res experiments.Result) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	switch r := res.(type) {
	case *experiments.Fig6Result:
		if r.Enabled.KeyBytesRecovered < w.minRecovered {
			fail("coalescing on: %d/16 key bytes recovered, want >= %d", r.Enabled.KeyBytesRecovered, w.minRecovered)
		}
		// Without coalescing the attack is at chance: 16/256 bytes
		// expected, and three or more lucky bytes has odds near 3e-5.
		if w.minRecovered > 0 && r.Disabled.KeyBytesRecovered > 2 {
			fail("coalescing off: %d/16 key bytes recovered, want chance level (<= 2)", r.Disabled.KeyBytesRecovered)
		}
	case *experiments.Fig15Result:
		if len(r.Sweep.Cells) != len(experiments.AllMechanisms)*len(experiments.Fig15Subwarps) {
			fail("%d sweep cells", len(r.Sweep.Cells))
		}
		prev := map[experiments.Mechanism]float64{}
		for _, c := range r.Sweep.Cells {
			if c.M == 1 && (c.NormCycles != 1 || c.NormTx != 1) {
				fail("%s/1 not equal to the baseline (cycles %g, tx %g)", c.Mechanism, c.NormCycles, c.NormTx)
			}
			if c.MeanTx <= prev[c.Mechanism] {
				fail("%s: mean tx %g at M=%d not above the previous M", c.Mechanism, c.MeanTx, c.M)
			}
			prev[c.Mechanism] = c.MeanTx
		}
	case *experiments.Fig18Result:
		if len(r.Cells) != len(experiments.AllMechanisms)*len(experiments.Fig18Subwarps) {
			fail("%d case-study cells", len(r.Cells))
		}
		for _, c := range r.Cells {
			// Deterministic coalescing lets the full correct key predict
			// the observed accesses exactly.
			if c.Mechanism == experiments.MechFSS && c.FullKeyCorr < 1-1e-9 {
				fail("FSS/%d: full-key correlation %g, want 1", c.M, c.FullKeyCorr)
			}
			if c.M == 1 && c.NormCycles != 1 {
				fail("%s/1: normalized cycles %g, want 1", c.Mechanism, c.NormCycles)
			}
		}
	case *experiments.FrontierResult:
		cells, _ := w.cells()
		if len(r.Rows) != len(cells) {
			fail("%d frontier rows, want %d", len(r.Rows), len(cells))
		}
		if len(r.Rows) > 0 && (r.Rows[0].Spec != "baseline" || r.Rows[0].NormCycles != 1 || r.Rows[0].NormTx != 1) {
			fail("first frontier row is not the baseline at 1x")
		}
	default:
		fail("unexpected result type %T", res)
	}
	return bad
}

// goldenCSV returns the committed CSV this workload must reproduce at
// the given benchmark seed, or "" when none applies.
func (w workload) goldenCSV(root string, benchSeed uint64) (string, error) {
	if w.golden == "" || benchSeed != 0 {
		return "", nil
	}
	b, err := os.ReadFile(filepath.Join(root, w.golden))
	if err != nil {
		return "", fmt.Errorf("reading golden: %w", err)
	}
	return string(b), nil
}

// setupOnce builds what a local pass's cells construct before their
// first launch — one encryption server (GPU and cipher) and one
// attacker per cell — and discards it.
func (w workload) setupOnce(tasks []cellTask, seed uint64) error {
	key := experiments.DefaultOptions().Key
	for _, t := range tasks {
		cfg := gpusim.DefaultConfig()
		cfg.Defense = t.mech
		if _, err := aesgpu.NewServer(cfg, key); err != nil {
			return err
		}
		if t.baseline {
			continue
		}
		if w.name == "keyrec-fig6" {
			attack.Baseline(seed ^ fig6AttackSeed)
		} else if _, err := attack.New(t.mech, seed^sweepAtkSeed); err != nil {
			return err
		}
	}
	return nil
}
