// Command perfbench is the repository's benchmark: it times four
// workloads of the RCoal reproduction end to end, checks their outputs,
// and, in a separate traced run, splits each one by layer. See
// README.md for the workloads, the metrics, and how to run it.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sweep-fig15 --seed 0 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Diagnostics, per-pass lines
// and the traced run's "where the time went" table go to standard
// error.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"rcoal/internal/experiments"
	"rcoal/internal/gpusim/tracevis"
	"rcoal/internal/runner"
)

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 0, "input seed; experiment seed = committed seed + seed (0 reproduces data/*.csv)")
	seconds := flag.Float64("seconds", 10, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err == nil && (*trace < 0 || *trace > 1 || *seconds <= 0) {
		err = fmt.Errorf("--trace must be 0 or 1 and --seconds positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(config{root: ".", w: w, benchSeed: *seed, seconds: *seconds, trace: *trace == 1}, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// config is one benchmark run.
type config struct {
	// root is the repository checkout: goldens are read from it and
	// scratch files (journals, the Chrome trace) go under
	// root/.bench_build/perfbench.
	root      string
	w         workload
	benchSeed uint64
	seconds   float64
	trace     bool
	// tamper corrupts the first timed pass's output before it is
	// checked (the tests' proof that a failed check is counted and
	// voids the pass).
	tamper bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ledger counts attempted and failed operations: cells, output checks,
// and the fleet's HTTP requests.
type ledger struct {
	attempted, failed int
	log               io.Writer
}

// check records one output check and reports whether it passed.
func (l *ledger) check(ok bool, format string, args ...any) bool {
	l.attempted++
	if !ok {
		l.failed++
		fmt.Fprintf(l.log, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}
	return ok
}

// reference is a recorded digest of a workload's output and simulated
// counts at one benchmark seed.
type reference struct {
	OutputSHA256 string    `json:"output_sha256"`
	Counts       simCounts `json:"counts"`
}

// referenceJSON holds digests for benchmark seed 0 (the committed
// seed) and seed 1, a second seed that catches a change preserving
// only the committed goldens; keyed by workload, then seed.
//
//go:embed reference.json
var referenceJSON []byte

func references() (map[string]map[string]reference, error) {
	var refs map[string]map[string]reference
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// minPasses is the fewest timed passes a run makes, whatever its
// --seconds: a median needs more than one.
const minPasses = 2

// sample is one timed, untraced pass.
type sample struct {
	wall, setup time.Duration
	allocBytes  uint64
	peakLive    uint64
	result      experiments.Result
	fleet       fleetStats
}

// bench is one run: a workload at one seed, what its outputs must
// equal, and the ledger of operations and checks.
type bench struct {
	cfg    config
	w      workload
	tasks  []cellTask
	d      *driver // the untraced re-drive
	tr     *tracer // nil unless tracing
	tmp    string  // scratch directory for the fleet's journals
	golden string  // committed CSV to reproduce, or ""
	ref    *reference
	// expected and sim are the reference pass's output and simulated
	// counts, which every later pass must reproduce.
	expected string
	sim      simCounts
	l        ledger
}

// run executes the benchmark and assembles its report.
func run(cfg config, log io.Writer) (*report, error) {
	w := cfg.w
	b := &bench{cfg: cfg, w: w, l: ledger{log: log},
		d:   &driver{w: w, seed: committedSeed + cfg.benchSeed, key: experiments.DefaultOptions().Key},
		tmp: filepath.Join(cfg.root, ".bench_build", "perfbench", "tmp")}
	if err := os.MkdirAll(b.tmp, 0o755); err != nil {
		return nil, err
	}
	var err error
	if b.golden, err = w.goldenCSV(cfg.root, cfg.benchSeed); err != nil {
		return nil, err
	}
	refs, err := references()
	if err != nil {
		return nil, err
	}
	// Digests describe the workload's own size, not the tests' tiny one.
	if r, ok := refs[w.name][fmt.Sprint(cfg.benchSeed)]; ok {
		if full, _ := lookupWorkload(w.name); full == w {
			b.ref = &r
		}
	}
	if b.tasks, err = w.cells(); err != nil {
		return nil, err
	}

	// Reference pass (untimed): the layer re-drive, an independent
	// computation of the same cells. Every timed pass must reproduce
	// its output byte for byte, and it supplies the seed's simulated
	// counts.
	refRes, refCounts, err := b.d.redrive(openSpan{}, nil)
	b.l.attempted += len(b.tasks)
	if err != nil {
		return nil, fmt.Errorf("reference pass: %w", err)
	}
	b.sim = refCounts.sim()
	b.expected, _ = b.check("reference", refRes, &b.sim)

	if cfg.trace {
		b.tr = newTracer()
	}
	var (
		samples     []sample
		traced      []map[string]float64
		tracedWalls []time.Duration
		acct        account
	)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := 0; pass < minPasses || time.Now().Before(deadline); pass++ {
		if s, ok := b.untracedPass(pass); ok {
			samples = append(samples, s) // a failed check voids the pass's timings
		}
		if !cfg.trace {
			continue
		}
		lm, wall, a, err := b.tracedPass(pass)
		if err != nil {
			b.l.failed++
			fmt.Fprintf(log, "perfbench: traced pass %d failed: %v\n", pass, err)
			continue
		}
		traced = append(traced, lm)
		tracedWalls = append(tracedWalls, wall)
		acct.add(a)
	}

	rep := &report{Metrics: map[string]metric{}}
	walls := make([]time.Duration, len(samples))
	setups := make([]time.Duration, len(samples))
	var lps, cps, allocs, peaks []float64
	for i, s := range samples {
		walls[i], setups[i] = s.wall, s.setup
		lps = append(lps, float64(b.sim.Launches)/s.wall.Seconds())
		cps = append(cps, float64(b.sim.SimCycles)/s.wall.Seconds())
		allocs = append(allocs, mib(s.allocBytes))
		peaks = append(peaks, mib(s.peakLive))
	}
	switch {
	case len(samples) == 0:
		// Every pass failed a check: no timing is reported.
	case !cfg.trace:
		rep.Metrics["wall_s"] = metric{medianDur(walls).Seconds(), "s"}
		rep.Metrics["launches_per_s"] = metric{median(lps), "1/s"}
		rep.Metrics["sim_cycles_per_s"] = metric{median(cps), "1/s"}
		rep.Metrics["setup_s"] = metric{medianDur(setups).Seconds(), "s"}
		rep.Metrics["peak_heap_mb"] = metric{median(peaks), "MiB"}
		rep.Metrics["alloc_mb"] = metric{median(allocs), "MiB"}
	case len(traced) > 0:
		for _, m := range perLayer {
			vals := make([]float64, len(traced))
			for i, lm := range traced {
				vals[i] = lm[m.name]
			}
			rep.Metrics[m.name] = metric{median(vals), m.unit}
		}
		rep.Metrics["bench.trace_overhead_ratio"] = metric{
			medianDur(tracedWalls).Seconds() / medianDur(walls).Seconds(), "ratio"}
		acct.printTable(log, w.name, len(traced), w.workers)
		if err := b.writeTrace(); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed = b.l.attempted, b.l.failed
	rep.Correct = b.l.failed == 0
	return rep, nil
}

// check checks one result against the seed's expectations and returns
// its rendered output and whether every check held. counts, when
// given, are compared with the recorded digest.
func (b *bench) check(what string, res experiments.Result, counts *simCounts) (string, bool) {
	l := &b.l
	out := output(res)
	if b.cfg.tamper && what == "pass 0" {
		out = "tampered\n" + out
	}
	ok := true
	for _, v := range b.w.invariants(res) {
		ok = l.check(false, "%s: %s", what, v) && ok
	}
	if b.expected != "" {
		ok = l.check(out == b.expected, "%s: output differs from the reference pass:\n%s", what, firstDiff(b.expected, out)) && ok
	}
	if b.golden != "" {
		ok = l.check(out == b.golden, "%s: output differs from %s:\n%s", what, b.w.golden, firstDiff(b.golden, out)) && ok
	}
	if b.ref != nil {
		ok = l.check(digest(out) == b.ref.OutputSHA256, "%s: output digest %s, recorded %s", what, digest(out), b.ref.OutputSHA256) && ok
		if counts != nil {
			ok = l.check(*counts == b.ref.Counts, "%s: simulated counts %+v, recorded %+v", what, *counts, b.ref.Counts) && ok
		}
	}
	return out, ok
}

// untracedPass runs and checks one timed pass the way the binaries run
// the experiment: experiments.Run on a local pool, or through the
// coordinator for the fleet workload.
func (b *bench) untracedPass(n int) (sample, bool) {
	w, seed := b.w, b.d.seed
	var s sample
	if !w.fleet {
		// Construction takes tens of microseconds; the median of many
		// repetitions keeps scheduler noise out of it.
		setups := make([]time.Duration, 15)
		for i := range setups {
			t0 := time.Now()
			if err := w.setupOnce(b.tasks, seed); err != nil {
				b.l.failed++
				fmt.Fprintf(b.l.log, "perfbench: pass %d setup failed: %v\n", n, err)
				return s, false
			}
			setups[i] = time.Since(t0)
		}
		s.setup = medianDur(setups)
	}
	runtime.GC()
	gw := watchGC()
	a0 := readUint64("/gc/heap/allocs:bytes")
	var err error
	if w.fleet {
		s.result, s.fleet, err = fleetPass(w, seed, b.tmp, nil, openSpan{}, nil, false)
		s.wall, s.setup = s.fleet.wall, s.fleet.setup
	} else {
		t0 := time.Now()
		s.result, err = experiments.Run(w.id, w.options(seed))
		s.wall = time.Since(t0)
	}
	s.allocBytes = readUint64("/gc/heap/allocs:bytes") - a0
	s.peakLive = gw.stop()

	b.l.attempted += len(b.tasks) + int(s.fleet.requests)
	b.l.failed += int(s.fleet.failed)
	if err != nil {
		b.l.failed++
		fmt.Fprintf(b.l.log, "perfbench: pass %d failed: %v\n", n, err)
		return s, false
	}
	_, ok := b.check(fmt.Sprintf("pass %d", n), s.result, nil)
	ok = ok && s.fleet.failed == 0
	fmt.Fprintf(b.l.log, "perfbench: %s pass %d: wall %.3fs setup %.6fs alloc %.1fMiB peak-live %.1fMiB ok=%v\n",
		w.name, n, s.wall.Seconds(), s.setup.Seconds(), mib(s.allocBytes), mib(s.peakLive), ok)
	return s, ok
}

// writeTrace writes every span of the run as one Chrome trace and
// checks it against the repository's trace schema.
func (b *bench) writeTrace() error {
	var buf bytes.Buffer
	if err := b.tr.writeChrome(&buf, "perfbench "+b.w.name); err != nil {
		return err
	}
	err := tracevis.Validate(buf.Bytes())
	b.l.check(err == nil, "chrome trace: %v", err)
	path := filepath.Join(filepath.Dir(b.tmp), fmt.Sprintf("trace-%s-seed%d.json", b.w.name, b.cfg.benchSeed))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b.l.log, "perfbench: chrome trace written to %s\n", path)
	return nil
}

// tracedPass re-drives the workload's cells with spans around every
// layer call, checks the result against the reference pass, and
// returns the pass's per-layer metrics, wall time, and time account.
func (b *bench) tracedPass(n int) (map[string]float64, time.Duration, account, error) {
	w, tr, l := b.w, b.tr, &b.l
	td := *b.d
	td.tr = tr
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pass := tr.startPass(n)
	var (
		res experiments.Result
		c   = &counts{}
		fs  fleetStats
		tel *runner.Telemetry
		err error
	)
	switch {
	case w.fleet:
		var mu sync.Mutex
		compute := func(id string, o experiments.Options, key string) (json.RawMessage, error) {
			if id != w.id || o.Seed != td.seed || o.Samples != w.samples || o.Lines != w.lines {
				return nil, fmt.Errorf("lease for %s seed %d samples %d lines %d is not this workload's", id, o.Seed, o.Samples, o.Lines)
			}
			cc := &counts{}
			sp := tr.openTop("cell."+key, pass)
			raw, err := td.computeFrontierCell(sp, key, cc)
			cc.cellNS = append(cc.cellNS, sp.close())
			mu.Lock()
			c.merge(cc)
			mu.Unlock()
			return raw, err
		}
		res, fs, err = fleetPass(w, td.seed, b.tmp, tr, pass, compute, true)
	default:
		if w.workers > 1 {
			tel = runner.NewTelemetry()
		}
		res, c, err = td.redrive(pass, tel)
	}
	wall := pass.close()
	runtime.ReadMemStats(&ms1)
	l.attempted += len(b.tasks) + int(fs.requests)
	l.failed += int(fs.failed)
	if err != nil {
		return nil, 0, account{}, err
	}
	what := fmt.Sprintf("traced pass %d", n)
	b.check(what, res, nil)
	l.check(c.sim() == b.sim, "%s: simulated counts %+v, reference pass %+v", what, c.sim(), b.sim)
	spans := tr.passSpans(n)
	l.check(nestingViolations(spans) == 0, "%s: %d spans exceed their parent", what, nestingViolations(spans))
	if w.fleet {
		l.check(fs.warmOutput == b.expected, "%s: warm resweep from the cache differs:\n%s", what, firstDiff(b.expected, fs.warmOutput))
	}

	a := accountPass(spans, w.workers)
	m := map[string]float64{
		"kernels.build_s":            c.buildNS.Seconds(),
		"kernels.builds":             float64(c.builds),
		"gpusim.run_s":               c.runNS.Seconds(),
		"gpusim.launches":            float64(c.launches),
		"gpusim.sim_cycles":          float64(c.simCycles),
		"gpusim.host_ns_per_cycle":   ratio(float64(c.runNS), float64(c.simCycles)),
		"gpusim.launch_p50_ms":       ms(percentile(c.launchNS, 0.50)),
		"gpusim.launch_p99_ms":       ms(percentile(c.launchNS, 0.99)),
		"core.tx":                    float64(c.coreTx),
		"core.tx_per_instr_mean":     ratio(float64(c.txInstrSum), float64(c.txInstrCount)),
		"sched.stall_memory_frac":    ratio(float64(c.stallMem), float64(c.stallMem+c.stallPipe+c.stallIdle+c.issued)),
		"icnt.to_mem_depth_mean":     ratio(float64(c.toMemSum), float64(c.toMemCount)),
		"icnt.to_sm_depth_mean":      ratio(float64(c.toSMSum), float64(c.toSMCount)),
		"dram.accesses":              float64(c.dramAccesses),
		"dram.row_hit_ratio":         ratio(float64(c.dramRowHits), float64(c.dramAccesses)),
		"dram.max_queue":             float64(c.dramMaxQueue),
		"attack.score_s":             c.scoreNS.Seconds(),
		"attack.guess_evals":         float64(c.guessEvals),
		"attack.ns_per_guess_eval":   ratio(float64(c.scoreNS), float64(c.guessEvals)),
		"runtime.gc_cycles":          float64(ms1.NumGC - ms0.NumGC),
		"runtime.gc_pause_ms":        float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		"where.kernels_frac":         a.frac(a.self[layerKernels]),
		"where.gpusim_frac":          a.frac(a.self[layerGPUSim]),
		"where.attack_frac":          a.frac(a.self[layerAttack]),
		"where.dist_checkpoint_frac": a.frac(a.self[layerDist]),
		"where.cell_other_frac":      a.frac(a.self[layerCell]),
		"where.runner_idle_frac":     a.frac(a.idle),
	}
	switch {
	case tel != nil:
		st := tel.Stats()
		m["runner.cells"] = float64(st.CellsDone)
		m["runner.cell_p50_s"] = percentile(c.cellNS, 0.5).Seconds()
		m["runner.cell_max_s"] = st.MaxCell.Seconds()
		m["runner.utilization"] = st.Utilization
	case w.fleet:
		// The worker's loops are the fleet's cell slots.
		var busy time.Duration
		for _, x := range c.cellNS {
			busy += x
		}
		m["runner.cells"] = float64(len(c.cellNS))
		m["runner.cell_p50_s"] = percentile(c.cellNS, 0.5).Seconds()
		m["runner.cell_max_s"] = percentile(c.cellNS, 1).Seconds()
		m["runner.utilization"] = ratio(float64(busy), float64(time.Duration(w.workers)*wall))
	}
	if w.fleet {
		m["dist.lease_rtt_p50_ms"] = ms(percentile(fs.rtt["/lease"], 0.50))
		m["dist.lease_rtt_p99_ms"] = ms(percentile(fs.rtt["/lease"], 0.99))
		m["dist.complete_rtt_p50_ms"] = ms(percentile(fs.rtt["/complete"], 0.50))
		m["dist.complete_rtt_p99_ms"] = ms(percentile(fs.rtt["/complete"], 0.99))
		m["dist.handler_ms"] = ratio(float64(fs.handlerNS)/1e6, float64(fs.requests))
		m["dist.poll_idle_s"] = a.idle.Seconds()
		m["dist.requests"] = float64(fs.requests)
		m["dist.lease_yield"] = ratio(float64(fs.accepted), float64(fs.grants))
		m["checkpoint.records"] = float64(fs.ckptRecords)
		m["checkpoint.bytes"] = float64(fs.ckptBytes)
		m["checkpoint.warm_restore_ms"] = ms(fs.warmRestore)
	}
	fmt.Fprintf(l.log, "perfbench: %s traced pass %d: wall %.3fs, %d spans\n", w.name, n, wall.Seconds(), len(spans))
	return m, wall, a, nil
}

// perLayer lists the traced run's metrics with their units, in report
// order. A layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"kernels.build_s", "s"}, {"kernels.builds", "count"},
	{"gpusim.run_s", "s"}, {"gpusim.launches", "count"}, {"gpusim.sim_cycles", "cycles"},
	{"gpusim.host_ns_per_cycle", "ns"}, {"gpusim.launch_p50_ms", "ms"}, {"gpusim.launch_p99_ms", "ms"},
	{"core.tx", "count"}, {"core.tx_per_instr_mean", "tx/instr"}, {"sched.stall_memory_frac", "ratio"},
	{"icnt.to_mem_depth_mean", "entries"}, {"icnt.to_sm_depth_mean", "entries"},
	{"dram.accesses", "count"}, {"dram.row_hit_ratio", "ratio"}, {"dram.max_queue", "entries"},
	{"attack.score_s", "s"}, {"attack.guess_evals", "count"}, {"attack.ns_per_guess_eval", "ns"},
	{"runner.cells", "count"}, {"runner.cell_p50_s", "s"}, {"runner.cell_max_s", "s"}, {"runner.utilization", "ratio"},
	{"dist.lease_rtt_p50_ms", "ms"}, {"dist.lease_rtt_p99_ms", "ms"},
	{"dist.complete_rtt_p50_ms", "ms"}, {"dist.complete_rtt_p99_ms", "ms"},
	{"dist.handler_ms", "ms"}, {"dist.poll_idle_s", "s"}, {"dist.requests", "count"}, {"dist.lease_yield", "ratio"},
	{"checkpoint.records", "count"}, {"checkpoint.bytes", "bytes"}, {"checkpoint.warm_restore_ms", "ms"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
	{"where.kernels_frac", "ratio"}, {"where.gpusim_frac", "ratio"}, {"where.attack_frac", "ratio"},
	{"where.dist_checkpoint_frac", "ratio"}, {"where.cell_other_frac", "ratio"}, {"where.runner_idle_frac", "ratio"},
	{"bench.trace_overhead_ratio", "ratio"},
}
