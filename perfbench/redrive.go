package main

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"rcoal/internal/aes"
	"rcoal/internal/attack"
	"rcoal/internal/experiments"
	"rcoal/internal/gpusim"
	"rcoal/internal/kernels"
	"rcoal/internal/mechanism"
	"rcoal/internal/rng"
	"rcoal/internal/runner"
	"rcoal/internal/stats"
)

// The re-drive recomputes a workload's cells by calling each layer's
// public entry point directly — kernels.Build, gpusim.(*GPU).Run with
// a gpusim.Metrics bundle, and the attack.Attacker scoring methods —
// so a span can be put around every layer call. It mirrors the
// experiment code cell for cell, including every derived seed, and
// the benchmark asserts that its output equals experiments.Run's byte
// for byte; a drift in either copy shows up as a failed check.

// Seeds the experiments derive from Options.Seed (see
// internal/aesgpu Collect and the experiment files).
const (
	sampleSeedMul  = 0x9e3779b97f4a7c15 // aesgpu.(*Server).Collect
	fig6AttackSeed = 0xA77AC4
	sweepAtkSeed   = 0x5EC // fig15 and ext-defense-frontier
	caseAtkSeed    = 0x1024
)

// counts are the per-layer work counts and busy times of one pass.
type counts struct {
	builds  int
	buildNS time.Duration

	launches  int
	runNS     time.Duration
	launchNS  []time.Duration
	simCycles int64

	coreTx                         uint64
	txInstrSum                     int64
	txInstrCount                   uint64
	stallMem, stallPipe, stallIdle uint64
	issued                         uint64
	toMemSum, toSMSum              int64
	toMemCount, toSMCount          uint64
	dramAccesses, dramRowHits      uint64
	dramMaxQueue                   int
	scoreNS                        time.Duration
	guessEvals                     int64
	cellNS                         []time.Duration
}

func (c *counts) merge(o *counts) {
	c.builds += o.builds
	c.buildNS += o.buildNS
	c.launches += o.launches
	c.runNS += o.runNS
	c.launchNS = append(c.launchNS, o.launchNS...)
	c.simCycles += o.simCycles
	c.coreTx += o.coreTx
	c.txInstrSum += o.txInstrSum
	c.txInstrCount += o.txInstrCount
	c.stallMem += o.stallMem
	c.stallPipe += o.stallPipe
	c.stallIdle += o.stallIdle
	c.issued += o.issued
	c.toMemSum += o.toMemSum
	c.toMemCount += o.toMemCount
	c.toSMSum += o.toSMSum
	c.toSMCount += o.toSMCount
	c.dramAccesses += o.dramAccesses
	c.dramRowHits += o.dramRowHits
	c.dramMaxQueue = max(c.dramMaxQueue, o.dramMaxQueue)
	c.scoreNS += o.scoreNS
	c.guessEvals += o.guessEvals
	c.cellNS = append(c.cellNS, o.cellNS...)
}

// addLaunch folds one launch's result and host time into c.
func (c *counts) addLaunch(res *gpusim.Result, d time.Duration) {
	c.launches++
	c.runNS += d
	c.launchNS = append(c.launchNS, d)
	c.simCycles += res.Cycles
	c.coreTx += res.TotalTx
	for _, s := range res.DRAM {
		c.dramAccesses += s.Accesses
		c.dramRowHits += s.RowHits
		c.dramMaxQueue = max(c.dramMaxQueue, s.MaxQueue)
	}
	m := res.Metrics
	if m == nil {
		return
	}
	h := m.Histograms[gpusim.MetricTxPerInstr]
	c.txInstrSum += h.Sum
	c.txInstrCount += h.Count
	h = m.Histograms[gpusim.MetricICNTToMemDepth]
	c.toMemSum += h.Sum
	c.toMemCount += h.Count
	h = m.Histograms[gpusim.MetricICNTToSMDepth]
	c.toSMSum += h.Sum
	c.toSMCount += h.Count
	c.stallMem += m.Counters[gpusim.MetricStallMemory]
	c.stallPipe += m.Counters[gpusim.MetricStallPipeline]
	c.stallIdle += m.Counters[gpusim.MetricStallIdle]
	c.issued += m.Counters[gpusim.MetricIssued]
}

// simCounts are the simulated counts that must repeat exactly for a
// seed: the benchmark records them per seed and compares every pass.
type simCounts struct {
	Launches     int    `json:"launches"`
	SimCycles    int64  `json:"sim_cycles"`
	CoreTx       uint64 `json:"core_tx"`
	DRAMAccesses uint64 `json:"dram_accesses"`
}

func (c *counts) sim() simCounts {
	return simCounts{Launches: c.launches, SimCycles: c.simCycles, CoreTx: c.coreTx, DRAMAccesses: c.dramAccesses}
}

// collected is one cell's dataset: what the attacker sees plus the
// simulator's ground truth, as aesgpu.(*Server).Collect gathers it.
type collected struct {
	cts          [][]kernels.Line
	lastRound    []float64 // last-round cycles (the attacker's measurement)
	lastRoundTx  []float64 // observed last-round accesses (fig18's measurement)
	totalCycles  []int64
	totalTx      []uint64
	energy       []float64
	lastRoundKey [16]byte
}

// driver re-drives cells of one workload at one seed.
type driver struct {
	w    workload
	seed uint64 // experiment seed
	key  []byte
	tr   *tracer
}

// collect encrypts the workload's samples under defense, one launch
// each, as aesgpu.(*Server).Collect does.
func (d *driver) collect(parent openSpan, defense mechanism.Mechanism, c *counts) (*collected, error) {
	cfg := gpusim.DefaultConfig()
	cfg.Defense = defense
	cfg.Metrics = gpusim.NewMetrics()
	g, err := gpusim.New(cfg)
	if err != nil {
		return nil, err
	}
	ciph, err := aes.NewCipher(d.key)
	if err != nil {
		return nil, err
	}
	last := ciph.Rounds()
	energy := gpusim.DefaultEnergyModel()
	ptRNG := rng.New(d.seed).Split(1)
	out := &collected{lastRoundKey: ciph.LastRoundKey()}
	for n := 0; n < d.w.samples; n++ {
		pt := kernels.RandomPlaintext(ptRNG, d.w.lines)
		sp := d.tr.open("kernels.build", parent)
		k, cts, err := kernels.Build(ciph, pt)
		c.buildNS += sp.close()
		c.builds++
		if err != nil {
			return nil, err
		}
		sp = d.tr.open("gpusim.run", parent)
		res, err := g.Run(k, d.seed^uint64(n+1)*sampleSeedMul)
		dt := sp.close()
		if err != nil {
			return nil, err
		}
		c.addLaunch(res, dt)
		out.cts = append(out.cts, cts)
		out.lastRound = append(out.lastRound, float64(res.RoundWindow(last)))
		out.lastRoundTx = append(out.lastRoundTx, float64(res.LastRoundTx(last)))
		out.totalCycles = append(out.totalCycles, res.Cycles)
		out.totalTx = append(out.totalTx, res.TotalTx)
		out.energy = append(out.energy, energy.Estimate(res, g.Config()).Total())
	}
	return out, nil
}

// correctByteCorrs returns, per key byte, the correlation between the
// estimation vector of the correct byte value and meas — the
// experiments' avgCorrectCorrelation, one attacker clone per byte.
func (d *driver) correctByteCorrs(parent openSpan, atk *attack.Attacker, ds *collected, meas []float64, c *counts) ([attack.KeyBytes]float64, error) {
	sp := d.tr.open("attack.score", parent)
	defer func() { c.scoreNS += sp.close() }()
	var rs [attack.KeyBytes]float64
	atk.Warm(len(ds.cts))
	for j := 0; j < attack.KeyBytes; j++ {
		u := atk.Clone().EstimationVector(ds.cts, j, ds.lastRoundKey[j])
		c.guessEvals += int64(len(ds.cts))
		r, err := stats.Pearson(u, meas)
		if err != nil {
			return rs, err
		}
		rs[j] = r
	}
	return rs, nil
}

// fullKeyCorr is the experiments' fullKeyEstimateCorrelation: ρ between
// the summed correct-byte estimations and meas.
func (d *driver) fullKeyCorr(parent openSpan, atk *attack.Attacker, ds *collected, meas []float64, c *counts) (float64, error) {
	sp := d.tr.open("attack.full_key", parent)
	defer func() { c.scoreNS += sp.close() }()
	atk.Warm(len(ds.cts))
	total := make([]float64, len(ds.cts))
	for j := 0; j < attack.KeyBytes; j++ {
		for n, v := range atk.Clone().EstimationVector(ds.cts, j, ds.lastRoundKey[j]) {
			total[n] += v
		}
		c.guessEvals += int64(len(ds.cts))
	}
	return stats.Pearson(total, meas)
}

func meanCorr(rs [attack.KeyBytes]float64) float64 {
	sum := 0.0
	for _, r := range rs {
		sum += r
	}
	return sum / attack.KeyBytes
}

func meanInt[T int64 | uint64](xs []T) float64 {
	s := 0.0
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// cellTask is one grid cell of a workload.
type cellTask struct {
	key      string
	mech     mechanism.Mechanism
	family   experiments.Mechanism // sweep and case-study cells
	m        int
	baseline bool // the sweep/case-study performance reference
}

// cells enumerates the workload's grid in the experiment's order.
func (w workload) cells() ([]cellTask, error) {
	switch w.name {
	case "keyrec-fig6":
		return []cellTask{
			{key: "coalescing-enabled", mech: mechanism.Baseline()},
			{key: "coalescing-disabled", mech: mechanism.NoCoal()},
		}, nil
	case "sweep-fig15", "case-fig18":
		ms := experiments.Fig15Subwarps
		if w.name == "case-fig18" {
			ms = experiments.Fig18Subwarps
		}
		out := []cellTask{{key: "baseline", mech: experiments.MechFSS.Policy(1), baseline: true}}
		for _, fam := range experiments.AllMechanisms {
			for _, m := range ms {
				out = append(out, cellTask{key: fmt.Sprintf("%s/%d", fam, m), mech: fam.Policy(m), family: fam, m: m})
			}
		}
		return out, nil
	case "fleet-frontier":
		out := []cellTask{{key: "baseline", mech: mechanism.Baseline()}}
		seen := map[string]bool{"baseline": true}
		for _, s := range mechanism.FrontierSpecs() {
			m, err := mechanism.Parse(s)
			if err != nil {
				return nil, err
			}
			if seen[m.Spec()] {
				continue
			}
			seen[m.Spec()] = true
			out = append(out, cellTask{key: m.Spec(), mech: m})
		}
		return out, nil
	}
	return nil, fmt.Errorf("perfbench: no grid for workload %q", w.name)
}

// cellResult is one re-driven cell's outcome in the experiment's own
// types; which fields are set depends on the workload.
type cellResult struct {
	fig6     experiments.Fig6Case
	sweep    experiments.SweepCell
	fig18    experiments.Fig18Cell
	frontier experiments.FrontierCell
	// meanCycles/meanTx are the reference cell's performance columns.
	meanCycles, meanTx float64
}

// runCell re-drives one cell under parent.
func (d *driver) runCell(parent openSpan, t cellTask, c *counts) (cellResult, error) {
	var r cellResult
	ds, err := d.collect(parent, t.mech, c)
	if err != nil {
		return r, err
	}
	switch d.w.name {
	case "keyrec-fig6":
		atk := attack.Baseline(d.seed ^ fig6AttackSeed)
		sp := d.tr.open("attack.recover_key", parent)
		kr, err := atk.RecoverKey(ds.cts, ds.lastRound)
		c.scoreNS += sp.close()
		c.guessEvals += int64(attack.KeyBytes * 256 * len(ds.cts))
		if err != nil {
			return r, err
		}
		lrk := ds.lastRoundKey
		r.fig6 = experiments.Fig6Case{
			CoalescingEnabled: t.key == "coalescing-enabled",
			Byte0:             kr.Bytes[0],
			TrueByte:          lrk[0],
			Byte0Recovered:    kr.Key[0] == lrk[0],
			Rank:              kr.Bytes[0].Rank(lrk[0]),
			KeyBytesRecovered: kr.CorrectCount(lrk),
		}
		return r, nil
	case "sweep-fig15", "case-fig18":
		r.meanCycles, r.meanTx = meanInt(ds.totalCycles), meanInt(ds.totalTx)
		if t.baseline {
			return r, nil
		}
		seed := d.seed ^ sweepAtkSeed
		meas := ds.lastRound
		if d.w.name == "case-fig18" {
			seed, meas = d.seed^caseAtkSeed, ds.lastRoundTx
		}
		atk, err := attack.New(t.mech, seed)
		if err != nil {
			return r, err
		}
		rs, err := d.correctByteCorrs(parent, atk, ds, meas, c)
		if err != nil {
			return r, err
		}
		if d.w.name == "sweep-fig15" {
			r.sweep = experiments.SweepCell{Mechanism: t.family, M: t.m,
				MeanCycles: r.meanCycles, MeanTx: r.meanTx, AvgCorrectCorr: meanCorr(rs)}
			return r, nil
		}
		full, err := d.fullKeyCorr(parent, atk, ds, meas, c)
		if err != nil {
			return r, err
		}
		r.fig18 = experiments.Fig18Cell{Mechanism: t.family, M: t.m, AvgCorrectCorr: meanCorr(rs), FullKeyCorr: full}
		return r, nil
	case "fleet-frontier":
		cell := experiments.FrontierCell{Name: t.mech.Name(), Spec: t.mech.Spec(),
			MeanCycles: meanInt(ds.totalCycles), MeanTx: meanInt(ds.totalTx)}
		for _, e := range ds.energy {
			cell.MeanEnergy += e
		}
		cell.MeanEnergy /= float64(len(ds.energy))
		atk, err := attack.New(t.mech, d.seed^sweepAtkSeed)
		if err != nil {
			return r, err
		}
		rs, err := d.correctByteCorrs(parent, atk, ds, ds.lastRound, c)
		if err != nil {
			return r, err
		}
		cell.AvgCorrectCorr = meanCorr(rs)
		r.frontier = cell
		return r, nil
	}
	return r, fmt.Errorf("perfbench: no cell driver for workload %q", d.w.name)
}

// assemble builds the experiment's result from re-driven cells,
// applying the experiment's normalization.
func (d *driver) assemble(rs []cellResult) experiments.Result {
	switch d.w.name {
	case "keyrec-fig6":
		return &experiments.Fig6Result{Enabled: rs[0].fig6, Disabled: rs[1].fig6}
	case "sweep-fig15":
		s := &experiments.SweepResult{Ms: experiments.Fig15Subwarps,
			BaselineCycles: rs[0].meanCycles, BaselineTx: rs[0].meanTx}
		for _, r := range rs[1:] {
			cell := r.sweep
			cell.NormCycles = cell.MeanCycles / s.BaselineCycles
			cell.NormTx = cell.MeanTx / s.BaselineTx
			s.Cells = append(s.Cells, cell)
		}
		return &experiments.Fig15Result{Sweep: s}
	case "case-fig18":
		res := &experiments.Fig18Result{Lines: d.w.lines, Samples: d.w.samples}
		for _, r := range rs[1:] {
			cell := r.fig18
			cell.NormCycles = r.meanCycles / rs[0].meanCycles
			res.Cells = append(res.Cells, cell)
		}
		return res
	default: // fleet-frontier
		res := &experiments.FrontierResult{Samples: d.w.samples}
		base := rs[0].frontier
		for _, r := range rs {
			cell := r.frontier
			cell.NormCycles = cell.MeanCycles / base.MeanCycles
			cell.NormTx = cell.MeanTx / base.MeanTx
			cell.NormEnergy = cell.MeanEnergy / base.MeanEnergy
			res.Rows = append(res.Rows, cell)
		}
		return res
	}
}

// redrive re-drives every cell of the workload locally, on a
// runner.Pool of the workload's width, under the pass span.
func (d *driver) redrive(pass openSpan, tel *runner.Telemetry) (experiments.Result, *counts, error) {
	tasks, err := d.w.cells()
	if err != nil {
		return nil, nil, err
	}
	rs := make([]cellResult, len(tasks))
	total := &counts{}
	var mu sync.Mutex
	pool := runner.Pool{Workers: d.w.workers, Telemetry: tel}
	err = pool.MapN(context.Background(), len(tasks), func(_ context.Context, i int) error {
		c := &counts{}
		sp := d.tr.openTop("cell."+tasks[i].key, pass)
		r, err := d.runCell(sp, tasks[i], c)
		c.cellNS = append(c.cellNS, sp.close())
		if err != nil {
			return fmt.Errorf("cell %s: %w", tasks[i].key, err)
		}
		rs[i] = r
		mu.Lock()
		total.merge(c)
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return d.assemble(rs), total, nil
}

// computeFrontierCell re-drives one leased frontier cell and encodes
// it the way the experiment's grid encodes a computed cell, for
// dist.Worker.Compute.
func (d *driver) computeFrontierCell(parent openSpan, spec string, c *counts) (json.RawMessage, error) {
	m, err := mechanism.Parse(spec)
	if err != nil {
		return nil, err
	}
	r, err := d.runCell(parent, cellTask{key: spec, mech: m}, c)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct{ Cell experiments.FrontierCell }{r.frontier})
}
