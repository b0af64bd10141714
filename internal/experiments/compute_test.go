package experiments

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"rcoal/internal/checkpoint"
	"rcoal/internal/runner"
)

// TestComputeCellMatchesJournaledBytes is the worker-side determinism
// contract: a cell computed in isolation by ComputeCell must be
// byte-identical to the JSON a full local run journals for the same
// key — that equality is what makes distributed results splice
// seamlessly into the coordinator's ledger.
func TestComputeCellMatchesJournaledBytes(t *testing.T) {
	o := testOptions()
	o.Samples = 6
	o.Lines = 8

	jo := o
	path := filepath.Join(t.TempDir(), "fig7.journal")
	j, err := OpenJournal(path, "fig7", jo, false)
	if err != nil {
		t.Fatal(err)
	}
	jo.Journal = j
	if _, err := Run("fig7", jo); err != nil {
		t.Fatal(err)
	}
	defer j.Close()

	for _, key := range []string{"fss/1", "fss/4", "fss/32"} {
		want, ok := j.Lookup(key)
		if !ok {
			t.Fatalf("journal missing %q", key)
		}
		got, err := ComputeCell("fig7", o, key)
		if err != nil {
			t.Fatalf("ComputeCell(%q): %v", key, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("ComputeCell(%q) = %s, journal has %s", key, got, want)
		}
	}
}

func TestComputeCellUnknownKey(t *testing.T) {
	o := testOptions()
	o.Samples = 2
	o.Lines = 1
	if _, err := ComputeCell("fig7", o, "rss/7"); err == nil || !strings.Contains(err.Error(), "no grid cell") {
		t.Errorf("unknown key error = %v", err)
	}
	// An experiment with no cell-parallel grid runs to completion and
	// reports the key as absent rather than hanging or panicking.
	if _, err := ComputeCell("table2", o, "anything"); err == nil || !strings.Contains(err.Error(), "no grid cell") {
		t.Errorf("gridless experiment error = %v", err)
	}
}

// TestResultsCacheWarmSweep pins the cache contract: a second sweep
// under identical result-determining options computes zero cells and
// renders identical output; a sweep under different options shares
// nothing.
func TestResultsCacheWarmSweep(t *testing.T) {
	dir := t.TempDir()
	o := testOptions()
	o.Samples = 6
	o.Lines = 8
	o.Workers = 1

	cold := o
	c1, err := OpenCache(dir, "fig7", cold)
	if err != nil {
		t.Fatal(err)
	}
	cold.Cache = c1
	var coldRan []int
	cold.faultHook = func(cell int) error { coldRan = append(coldRan, cell); return nil }
	coldTel := runner.NewTelemetry()
	cold.Telemetry = coldTel
	refRes, err := Run("fig7", cold)
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	if len(coldRan) != len(Fig7Subwarps) {
		t.Fatalf("cold run computed %d cells, want %d", len(coldRan), len(Fig7Subwarps))
	}
	if s := coldTel.Stats(); s.CacheHits != 0 || s.CacheMisses != len(Fig7Subwarps) {
		t.Errorf("cold cache hit/miss = %d/%d, want 0/%d", s.CacheHits, s.CacheMisses, len(Fig7Subwarps))
	}

	warm := o
	c2, err := OpenCache(dir, "fig7", warm)
	if err != nil {
		t.Fatal(err)
	}
	warm.Cache = c2
	warm.faultHook = func(cell int) error {
		t.Errorf("warm run computed cell %d, want all from cache", cell)
		return nil
	}
	warmTel := runner.NewTelemetry()
	warm.Telemetry = warmTel
	res, err := Run("fig7", warm)
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	if res.Render() != refRes.Render() {
		t.Error("cache-served run renders differently from cold run")
	}
	if s := warmTel.Stats(); s.CacheHits != len(Fig7Subwarps) || s.RestoredCells != len(Fig7Subwarps) {
		t.Errorf("warm stats = %+v, want all %d cells cache-hit and restored", s, len(Fig7Subwarps))
	}

	// Different seed → different fingerprint → nothing shared.
	other := o
	other.Seed++
	c3, err := OpenCache(dir, "fig7", other)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Len() != 0 {
		t.Errorf("differently-seeded cache file holds %d cells, want a fresh file", c3.Len())
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	o := DefaultOptions()
	base := Fingerprint("fig7", o)
	for name, variant := range map[string]Options{
		"seed":    func() Options { v := o; v.Seed++; return v }(),
		"samples": func() Options { v := o; v.Samples++; return v }(),
		"lines":   func() Options { v := o; v.Lines++; return v }(),
		"key":     func() Options { v := o; v.Key = []byte("another 16B key!"); return v }(),
	} {
		if Fingerprint("fig7", variant) == base {
			t.Errorf("fingerprint insensitive to %s", name)
		}
	}
	if Fingerprint("fig18", o) == base {
		t.Error("fingerprint insensitive to experiment id")
	}
	// Workers must NOT change the fingerprint: results are
	// byte-identical at any setting, so they are shareable.
	par := o
	par.Workers = 7
	if Fingerprint("fig7", par) != base {
		t.Error("fingerprint varies with non-result-determining options")
	}
}

// TestFingerprintPinned pins the default-options fingerprints, so that
// results caches and journals written by earlier builds stay valid. A
// change here invalidates every such cache and journal on disk.
func TestFingerprintPinned(t *testing.T) {
	for id, want := range map[string]string{
		"fig7":                 "c4a99811ca962612",
		"fig15":                "cb5d7291ae2f843f",
		"fig18":                "7deb2c1996310314",
		"ext-defense-frontier": "402d4daef13c7035",
	} {
		if got := Fingerprint(id, DefaultOptions()); got != want {
			t.Errorf("Fingerprint(%q, DefaultOptions()) = %s, want %s", id, got, want)
		}
	}
}

// TestResumeRefusesHybridJournal: builds that still had the hybrid
// analytical mode recorded "hybrid":true in the journal meta of hybrid
// runs. Those journals hold model scores, not simulated ones, so
// resuming one must be refused.
func TestResumeRefusesHybridJournal(t *testing.T) {
	o := testOptions()
	// legacyMeta mirrors journalMeta as hybrid-era builds wrote it.
	type legacyMeta struct {
		Experiment string   `json:"experiment"`
		Samples    int      `json:"samples"`
		Lines      int      `json:"lines"`
		Seed       uint64   `json:"seed"`
		KeyHash    string   `json:"keyHash"`
		Hybrid     bool     `json:"hybrid,omitempty"`
		Mechanisms []string `json:"mechanisms,omitempty"`
	}
	cur := metaFor("fig15", o)
	for _, hybrid := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "fig15.journal")
		j, err := checkpoint.Create(path, legacyMeta{
			Experiment: cur.Experiment, Samples: cur.Samples, Lines: cur.Lines,
			Seed: cur.Seed, KeyHash: cur.KeyHash, Hybrid: hybrid,
		})
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		j, err = OpenJournal(path, "fig15", o, true)
		switch {
		case hybrid && err == nil:
			j.Close()
			t.Error("resume of a hybrid journal succeeded")
		case !hybrid && err != nil:
			// The mirror must match a non-hybrid journal, or the
			// refusal above proves nothing.
			t.Errorf("resume of a non-hybrid legacy journal rejected: %v", err)
		case err == nil:
			j.Close()
		}
	}
}
