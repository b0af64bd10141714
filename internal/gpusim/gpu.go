package gpusim

import (
	"fmt"
	"math"

	"rcoal/internal/core"
	"rcoal/internal/gpusim/cache"
	"rcoal/internal/gpusim/dram"
	"rcoal/internal/gpusim/icnt"
	"rcoal/internal/gpusim/mem"
	"rcoal/internal/mechanism"
	"rcoal/internal/ringbuf"
	"rcoal/internal/rng"
)

// DefaultMaxCycles is the cycle budget when Config.MaxCycles is 0 —
// orders of magnitude above any legitimate Table I kernel (the 1024-
// line case study finishes in ~10^6 cycles).
const DefaultMaxCycles = 1 << 28

// DefaultWatchdogWindow is the forward-progress watchdog's patience
// when Config.WatchdogWindow is 0. Legitimate no-change stretches are
// bounded by the largest subsystem latency (hundreds of cycles for
// scaled GDDR5 timings); 2^20 steps leaves three orders of magnitude
// of headroom while still tripping on a wedged launch in well under a
// second.
const DefaultWatchdogWindow = 1 << 20

// GPU is a configured simulator instance. Run rebuilds the launch's
// logical state per call, but the heavy runtime structures (SM state,
// crossbars, DRAM controllers, caches, the request arena) are retained
// and reset between runs, so steady-state re-invocation on the same
// GPU allocates only the returned Result and the launch plan. A GPU
// can be shared sequentially across experiments; it is not safe for
// concurrent use — create one GPU per goroutine.
type GPU struct {
	cfg    Config
	timing dram.Timing // scaled into core-clock domain

	// scratch buffers for the memory-issue hot path; Run is
	// sequential, so sharing them across instructions is safe.
	blockScratch []uint64
	txScratch    []uint64

	// rt is the reusable runtime state; valid when the previous launch
	// had the same warp count.
	rt    *runState
	arena reqArena

	// SkippedCycles counts the cycles elided by event-driven
	// fast-forward over the GPU's lifetime (diagnostic; it never
	// influences results).
	SkippedCycles int64
}

// New validates the configuration and returns a simulator.
func New(cfg Config) (*GPU, error) {
	if cfg.Defense == nil {
		cfg.Defense = mechanism.Baseline()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &GPU{cfg: cfg, timing: cfg.DRAMTiming.Scale(cfg.clockRatio())}, nil
}

// Config returns the configuration the GPU was built with.
func (g *GPU) Config() Config { return g.cfg }

// reqChunk is the request-arena chunk size.
const reqChunk = 512

// reqArena hands out mem.Request values from chunked storage that is
// reset (not freed) between launches: requests only live within one
// Run, so steady-state runs allocate no request memory at all.
type reqArena struct {
	chunks [][]mem.Request
	ci     int // current chunk
	used   int // slots used in the current chunk
}

func (a *reqArena) get() *mem.Request {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]mem.Request, reqChunk))
	}
	r := &a.chunks[a.ci][a.used]
	*r = mem.Request{}
	a.used++
	if a.used == reqChunk {
		a.ci++
		a.used = 0
	}
	return r
}

func (a *reqArena) reset() { a.ci, a.used = 0, 0 }

// warpRun is the runtime state of one warp.
type warpRun struct {
	prog     *WarpProgram
	pc       int
	readyAt  int64
	pending  int  // outstanding memory replies
	blocked  bool // waiting on memory
	curRound int
	done     bool
	plan     core.Plan // this warp's subwarp plan
	// delayedPC marks the pc whose randomized issue delay (the defense's
	// Delay hook) has already been drawn, so a retried instruction does
	// not stall twice; -1 when no draw is pending.
	delayedPC int
	stats     WarpStats
}

// reset prepares the warp state for a new launch.
func (w *warpRun) reset(prog *WarpProgram, plan core.Plan) {
	*w = warpRun{prog: prog, plan: plan, delayedPC: -1}
	for r := 0; r <= MaxRounds; r++ {
		w.stats.RoundStart[r] = -1
		w.stats.RoundEnd[r] = -1
	}
}

// localReply is an L1 hit completing after the hit latency.
type localReply struct {
	at   int64
	warp int
}

// smState is the runtime state of one SM: its resident warps, the
// per-scheduler warp subsets, the LD/ST unit's pending transaction
// queue (the PRT drain queue of Figure 11), the optional L1, and the
// optional MSHR merge table.
type smState struct {
	warps    []*warpRun
	sched    [][]*warpRun // per-scheduler warp subsets
	schedPtr []int
	injectQ  ringbuf.Ring[*mem.Request]
	l1       *cache.Cache
	replies  []localReply
	// mshr maps an outstanding block to the warp ids piggybacked on
	// the primary request (the primary's warp id is in the request).
	mshr map[uint64][]int
	// prt is the SM's outstanding-transaction count (the pending-
	// request-table occupancy of Figure 11); maintained only when
	// metrics are installed.
	prt int
	// wake is a lower bound on the next cycle a warp of this SM can
	// issue: the minimum readyAt over its warps that are neither done
	// nor blocked, recomputed after the schedulers run and lowered to
	// now+1 by settle. Before it the issue stage is a no-op.
	wake int64
}

// partState is one memory partition: the optional L2 slice in front of
// the DRAM controller, plus its delayed hit replies.
type partState struct {
	ctrl    *dram.Controller
	l2      *cache.Cache
	replies []*mem.Request // L2 hits, delivered when Done <= now
	// wake is a lower bound on the partition's next cycle of work: the
	// minimum of the controller's next event, the request port's next
	// delivery, and the L2 replies' Done, recomputed after every step
	// and lowered by every push toward the partition. Before it the
	// partition's step is a no-op.
	wake int64
}

// runState bundles one launch's mutable state.
type runState struct {
	runs      []*warpRun
	sms       []*smState
	parts     []*partState
	toMem     *icnt.Crossbar
	toSM      *icnt.Crossbar
	res       *Result
	reqID     uint64
	remaining int
	// progress counts observable state transitions (issues, queue
	// movements, DRAM scheduling, replies, retirements). The forward-
	// progress watchdog trips when it stops advancing while warps
	// remain unfinished; it never influences simulation behavior.
	progress uint64
	// launch is the realized defense state for this launch: the subwarp
	// plan behind res.Plan plus the per-request hooks (delay, shuffle)
	// and the coalescer bypass.
	launch mechanism.Launch
	// defRNG feeds the launch's per-request defense hooks; nil when the
	// defense has none, so plan-only mechanisms consume exactly the
	// streams they did before the Mechanism seam existed.
	defRNG    *rng.Source
	basePlan  core.Plan // whole-warp plan for non-vulnerable rounds
	roundMask [MaxRounds + 1]bool
	selective bool
}

// Run executes the kernel to completion and returns its statistics.
// The seed drives the launch's hardware randomness: the subwarp plans
// for RSS/RTS policies and the cache index keys when randomized.
// Identical (kernel, seed) pairs produce identical results, whether
// fast-forward is enabled or not (the determinism contract checked by
// TestFastForwardByteIdenticalResults).
func (g *GPU) Run(k *Kernel, seed uint64) (*Result, error) {
	if err := k.Validate(g.cfg.WarpSize); err != nil {
		return nil, err
	}
	st, err := g.setup(k, seed)
	if err != nil {
		return nil, err
	}
	if _, _, err := g.loop(st, k, 0, false); err != nil {
		return nil, err
	}
	g.finish(st)
	return st.res, nil
}

// loop runs the cycle loop from cycle start until the launch
// terminates, setting st.res.Cycles. With pauseAtVulnerable set it
// instead returns (pausedAt, true, nil) at the top of the first cycle
// where some ready warp's next real instruction belongs to a
// vulnerable round, before any work of that cycle happens — the
// copy-on-write fork point (fork.go). The predicate is a pure function
// of simulator state, and no plan-dependent work of a vulnerable round
// can have executed before it fires, so the pause cycle and the
// pre-pause state are identical across mechanism configurations.
// Fast-forward cannot jump past the boundary: a ready warp pins the
// event horizon to now+1, and every skipped cycle provably has no
// ready warps, where the predicate is vacuously false.
func (g *GPU) loop(st *runState, k *Kernel, start int64, pauseAtVulnerable bool) (pausedAt int64, paused bool, err error) {
	fastForward := !g.cfg.FastForwardDisabled
	maxCycles := g.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	window := g.cfg.WatchdogWindow
	if window == 0 {
		window = DefaultWatchdogWindow
	}
	// Forward-progress watchdog state: lastProgress is st.progress at
	// the most recent observable state change, stalled the consecutive
	// steps without one. Fast-forward only elides cycles proven to be
	// no-ops, so skipped cycles never age the watchdog.
	var lastProgress uint64
	var stalled int64

	for now := start; ; now++ {
		if now > maxCycles {
			return 0, false, &MaxCyclesError{Kernel: k.Label, MaxCycles: maxCycles, Snapshot: g.snapshot(st, now)}
		}
		if pauseAtVulnerable && st.atVulnerableBoundary(now) {
			return now, true, nil
		}
		smBusy := g.stepSMs(st, now)
		memBusy := g.stepMemory(st, now)
		if st.remaining == 0 && st.toMem.Idle() && st.toSM.Idle() && st.idleMemory() && st.idleSMs() {
			st.res.Cycles = now
			return 0, false, nil
		}
		if st.progress != lastProgress {
			lastProgress = st.progress
			stalled = 0
		} else if stalled++; stalled >= window {
			return 0, false, &NoProgressError{Kernel: k.Label, Cycle: now, Window: window, Snapshot: g.snapshot(st, now)}
		}
		if fastForward && !smBusy && !memBusy {
			// Event-driven fast-forward: when no subsystem can make
			// progress before some future cycle, jump straight to it.
			// Every skipped cycle is one where stepSMs and stepMemory
			// would have been no-ops, so results are byte-identical to
			// pure cycle-stepping. The busy flags are a fast path: a
			// non-empty inject or DRAM queue pins the horizon to now+1,
			// so the full scan below would find nothing to skip.
			next := g.nextEvent(st, now)
			if next == math.MaxInt64 {
				// Warps remain unfinished yet nothing is in flight
				// anywhere: no future step can change state. Report the
				// wedge immediately instead of aging the watchdog.
				return 0, false, &NoProgressError{Kernel: k.Label, Cycle: now, Snapshot: g.snapshot(st, now)}
			}
			if next > now+1 {
				if next > maxCycles {
					next = maxCycles + 1 // surface the cycle budget
				}
				g.SkippedCycles += next - now - 1
				now = next - 1
			}
		}
	}
}

// finish folds the per-subsystem statistics into st.res after the loop
// terminates.
func (g *GPU) finish(st *runState) {
	for _, p := range st.parts {
		st.res.DRAM = append(st.res.DRAM, p.ctrl.Stats)
		if p.l2 != nil {
			st.res.L2 = append(st.res.L2, p.l2.Stats)
		}
	}
	for _, sm := range st.sms {
		if sm.l1 != nil {
			st.res.L1 = append(st.res.L1, sm.l1.Stats)
		}
	}
	if g.cfg.Metrics != nil {
		g.snapshotInto(st, st.res)
	}
}

// atVulnerableBoundary reports whether some ready warp's next real
// (non-RoundMark) instruction belongs to a vulnerable round. tryIssue
// consumes RoundMarks eagerly in the same issue slot as the following
// instruction, so the scan mirrors exactly what the warp would issue
// this cycle; a true result means issuing any further cycle could
// execute plan-dependent work.
func (st *runState) atVulnerableBoundary(now int64) bool {
	for _, w := range st.runs {
		if w.done || w.blocked || w.readyAt > now {
			continue
		}
		for pc := w.pc; pc < len(w.prog.Instrs); pc++ {
			ins := &w.prog.Instrs[pc]
			if ins.Kind == RoundMark {
				continue
			}
			if ins.Round >= 0 && ins.Round <= MaxRounds && st.roundMask[ins.Round] {
				return true
			}
			break
		}
	}
	return false
}

// nextEvent returns the earliest cycle strictly after now at which any
// subsystem can act, or math.MaxInt64 when nothing is in flight. The
// horizon of each subsystem is conservative: it may be earlier than
// the subsystem's next true state change (in which case the simulator
// simply steps a few idle cycles), but it is never later.
func (g *GPU) nextEvent(st *runState, now int64) int64 {
	next := int64(math.MaxInt64)
	for smID, sm := range st.sms {
		if len(sm.warps) == 0 {
			continue // never receives traffic, never issues
		}
		// A queued transaction drains next cycle.
		if sm.injectQ.Len() > 0 {
			return now + 1
		}
		for i := range sm.replies {
			if t := sm.replies[i].at; t < next {
				next = t
			}
		}
		if t := st.toSM.NextDeliverable(smID); t < next {
			next = t
		}
		// Blocked warps are woken by a reply, covered above.
		if sm.wake <= now {
			// Ready but not issued this cycle (scheduler bandwidth):
			// the SM is active next cycle.
			return now + 1
		}
		if sm.wake < next {
			next = sm.wake
		}
	}
	for _, p := range st.parts {
		next = min(next, p.wake)
	}
	return next
}

// setup builds the launch state: warps on SMs, plans, interconnect,
// caches, and memory partitions. Structural state is reused from the
// previous launch when the warp count matches; per-launch state (the
// Result, the plans) is always fresh because it escapes to the caller.
func (g *GPU) setup(k *Kernel, seed uint64) (*runState, error) {
	// The defense's launch state (for subwarp mechanisms, the
	// subwarp-id mapping) is set by the hardware logic at the beginning
	// of the execution and stays fixed for the launch (Section IV-D):
	// one realization shared by every warp of the launch, unless
	// PlanPerWarp asks for per-warp randomization.
	hwRNG := rng.New(seed).Split(0xC0A1) // hardware stream; attackers never see it
	launch, err := g.cfg.Defense.NewLaunch(g.cfg.WarpSize, hwRNG)
	if err != nil {
		return nil, err
	}
	cacheRNG := rng.New(seed).Split(0xCAC8E)

	st := g.rt
	if st == nil || len(st.runs) != len(k.Warps) {
		if st, err = g.build(len(k.Warps)); err != nil {
			return nil, err
		}
		g.rt = st
	}
	// Reset also serves the fresh build: it draws the launch's cache
	// hash keys from cacheRNG in a fixed order, so rebuilt and reused
	// runtimes see identical key sequences.
	g.resetRuntime(st, cacheRNG)
	g.arena.reset()
	if m := g.cfg.Metrics; m != nil {
		m.reset() // each Run reports exactly its own launch
	}

	st.res = &Result{Plan: launch.Plan, Warps: make([]WarpStats, len(k.Warps))}
	st.reqID = 0
	st.remaining = len(st.runs)
	st.launch = launch
	st.defRNG = nil
	if launch.HasHooks() {
		// Dedicated stream for the per-request hooks: drawn lazily here
		// so plan-only mechanisms touch exactly the streams they did
		// before the Mechanism seam existed (the byte-identity contract).
		st.defRNG = rng.New(seed).Split(0xDE1A)
	}
	st.roundMask = [MaxRounds + 1]bool{}
	st.basePlan = core.Plan{}
	st.selective = len(g.cfg.VulnerableRounds) > 0
	if st.selective {
		st.basePlan = mechanism.WholeWarpPlan(g.cfg.WarpSize)
		for _, r := range g.cfg.VulnerableRounds {
			st.roundMask[r] = true
		}
	}
	for i, wp := range k.Warps {
		plan := launch.Plan
		if g.cfg.PlanPerWarp {
			wl, err := g.cfg.Defense.NewLaunch(g.cfg.WarpSize, hwRNG)
			if err != nil {
				return nil, err
			}
			plan = wl.Plan
		}
		st.runs[i].reset(wp, plan)
	}
	return st, nil
}

// build constructs the structural runtime state for a launch of
// nWarps warps: SM states with caches, warp slots distributed over SMs
// and schedulers, crossbars, and memory partitions. Cache hash keys
// are not drawn here — setup keys every cache through resetRuntime so
// rebuilt and reused runtimes are indistinguishable.
func (g *GPU) build(nWarps int) (*runState, error) {
	st := &runState{}
	st.sms = make([]*smState, g.cfg.NumSMs)
	for i := range st.sms {
		sm := &smState{schedPtr: make([]int, g.cfg.SchedulersPerSM)}
		if g.cfg.L1Enabled {
			cfg := g.cfg.L1
			cfg.RandomizeIndex = cfg.RandomizeIndex || g.cfg.CacheRandomized
			l1, err := cache.New(cfg, 0)
			if err != nil {
				return nil, err
			}
			sm.l1 = l1
		}
		if g.cfg.MSHREnabled {
			sm.mshr = make(map[uint64][]int)
		}
		st.sms[i] = sm
	}

	st.runs = make([]*warpRun, nWarps)
	for i := range st.runs {
		w := &warpRun{}
		st.runs[i] = w
		st.sms[i%len(st.sms)].warps = append(st.sms[i%len(st.sms)].warps, w)
	}
	for _, sm := range st.sms {
		sm.sched = make([][]*warpRun, g.cfg.SchedulersPerSM)
		for i, w := range sm.warps {
			s := i % g.cfg.SchedulersPerSM
			sm.sched[s] = append(sm.sched[s], w)
		}
	}

	var err error
	st.toMem, err = icnt.NewCrossbar(g.cfg.AddressMap.Partitions, g.cfg.ICNTLatency, 1)
	if err != nil {
		return nil, err
	}
	st.toSM, err = icnt.NewCrossbar(g.cfg.NumSMs, g.cfg.ICNTLatency, mem.BlockBytes/g.cfg.FlitBytes)
	if err != nil {
		return nil, err
	}
	st.parts = make([]*partState, g.cfg.AddressMap.Partitions)
	for i := range st.parts {
		p := &partState{}
		p.ctrl, err = dram.NewController(g.timing, g.cfg.AddressMap, g.cfg.DRAMQueueCap)
		if err != nil {
			return nil, err
		}
		if g.cfg.L2Enabled {
			cfg := g.cfg.L2
			cfg.RandomizeIndex = cfg.RandomizeIndex || g.cfg.CacheRandomized
			p.l2, err = cache.New(cfg, 0)
			if err != nil {
				return nil, err
			}
		}
		st.parts[i] = p
	}

	// Arm the configured test-only faults (internal/faultinject). The
	// seams survive per-launch resets, so a reused runtime keeps its
	// fault plan.
	if f := g.cfg.Faults; f != nil {
		if s := f.DRAMStall; s != nil {
			for pid, p := range st.parts {
				if s.Partition == -1 || s.Partition == pid {
					p.ctrl.InjectStall(s.AfterAccesses)
				}
			}
		}
		if d := f.DropReply; d != nil {
			st.toSM.InjectDrop(d.Port, d.Nth)
		}
	}

	// Install the metrics layer's subsystem hooks. The registry hands
	// back the same histogram objects across rebuilds, so a rebuilt
	// runtime keeps accumulating into the same series.
	if m := g.cfg.Metrics; m != nil {
		st.toMem.DepthHist = m.icntToMem
		st.toSM.DepthHist = m.icntToSM
		for pid, p := range st.parts {
			p.ctrl.DepthHist = m.dramDepthHist(pid)
		}
		m.installDRAM(len(st.parts), g.cfg.AddressMap.Banks)
	}
	return st, nil
}

// resetRuntime restores the structural state to launch-start
// conditions, drawing fresh cache hash keys from cacheRNG in the same
// order build-time construction would (one per enabled L1 in SM order,
// then one per enabled L2 in partition order).
func (g *GPU) resetRuntime(st *runState, cacheRNG *rng.Source) {
	for _, sm := range st.sms {
		sm.injectQ.Reset()
		sm.replies = sm.replies[:0]
		for i := range sm.schedPtr {
			sm.schedPtr[i] = 0
		}
		if sm.l1 != nil {
			sm.l1.Reset(cacheRNG.Uint64())
		}
		if sm.mshr != nil {
			clear(sm.mshr)
		}
		sm.prt = 0
		sm.wake = 0
	}
	for _, p := range st.parts {
		p.ctrl.Reset()
		p.replies = p.replies[:0]
		p.wake = 0
		if p.l2 != nil {
			p.l2.Reset(cacheRNG.Uint64())
		}
	}
	st.toMem.Reset()
	st.toSM.Reset()
}

// stepSMs advances every SM by one cycle: deliver replies, drain the
// LD/ST injection queues, and let the schedulers issue. The returned
// flag reports whether some SM still holds queued transactions, which
// pins the event horizon to now+1 (see nextEvent). Under fast-forward
// an SM's schedulers are skipped before its wake cycle, where no warp
// can issue, unless metrics are installed: their stall counters
// classify every scheduler slot of every stepped cycle.
func (g *GPU) stepSMs(st *runState, now int64) (busy bool) {
	gate := !g.cfg.FastForwardDisabled && g.cfg.Metrics == nil
	for smID, sm := range st.sms {
		if len(sm.warps) == 0 {
			continue // no resident warps: nothing ever happens here
		}
		// 1a. L1-hit replies maturing this cycle.
		if len(sm.replies) > 0 {
			kept := sm.replies[:0]
			for _, lr := range sm.replies {
				if lr.at <= now {
					g.settle(st, sm, smID, st.runs[lr.warp], now)
				} else {
					kept = append(kept, lr)
				}
			}
			sm.replies = kept
		}

		// 1b. Memory replies from the interconnect (one per cycle:
		// return-port bandwidth).
		if r := st.toSM.Pop(smID, now); r != nil {
			if sm.l1 != nil && r.Kind == mem.Load {
				sm.l1.Access(mem.BlockOf(r.Addr)) // fill
			}
			g.settle(st, sm, smID, st.runs[r.Warp], now)
			if sm.mshr != nil {
				block := mem.BlockOf(r.Addr)
				if waiters, ok := sm.mshr[block]; ok {
					for _, waiter := range waiters {
						g.settle(st, sm, smID, st.runs[waiter], now)
					}
					delete(sm.mshr, block)
				}
			}
		}

		// 2. Drain the LD/ST injection queue into the interconnect.
		for n := 0; n < g.cfg.MCURate && sm.injectQ.Len() > 0; n++ {
			req := sm.injectQ.Pop()
			req.Issued = now
			pid := req.Loc.Partition
			st.toMem.Push(pid, req, now)
			p := st.parts[pid]
			p.wake = min(p.wake, st.toMem.NextDeliverable(pid))
			st.progress++
		}

		// 3. Warp schedulers issue.
		if !gate || sm.wake <= now {
			for s := 0; s < g.cfg.SchedulersPerSM; s++ {
				g.issueOne(st, sm, smID, s, now)
			}
			sm.wake = math.MaxInt64
			for _, w := range sm.warps {
				if !w.done && !w.blocked && w.readyAt < sm.wake {
					sm.wake = w.readyAt
				}
			}
		}

		if sm.injectQ.Len() > 0 {
			busy = true
		}
	}
	return busy
}

// settle delivers one memory reply to a warp, retiring the warp if it
// has run off its program.
func (g *GPU) settle(st *runState, sm *smState, smID int, w *warpRun, now int64) {
	st.progress++
	if g.cfg.Trace != nil {
		g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvReply, SM: smID, Warp: w.prog.ID})
	}
	if m := g.cfg.Metrics; m != nil {
		sm.prt--
		m.prtOccupancy.Observe(int64(sm.prt))
	}
	w.pending--
	if w.pending < 0 {
		panic(fmt.Sprintf("gpusim: warp %d reply underflow", w.prog.ID))
	}
	if w.pending == 0 && w.blocked {
		w.blocked = false
		w.readyAt = now + 1
		sm.wake = min(sm.wake, now+1)
		if w.pc >= len(w.prog.Instrs) {
			g.retire(st, w, now)
		}
	}
}

// retire finishes a warp and emits its trace event.
func (g *GPU) retire(st *runState, w *warpRun, now int64) {
	st.progress++
	w.finish(now, &st.res.Warps[w.prog.ID])
	st.remaining--
	if g.cfg.Trace != nil {
		g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvRetire, Warp: w.prog.ID})
	}
}

// stepMemory advances every partition: accept a request from the
// interconnect (through the L2 when enabled), tick the DRAM
// controller, and send replies back. The returned flag reports
// whether some controller still queues unscheduled requests, which
// pins the event horizon to now+1 (see nextEvent). Under fast-forward
// a partition is skipped before its wake cycle, where its step is a
// strict no-op.
func (g *GPU) stepMemory(st *runState, now int64) (busy bool) {
	gate := !g.cfg.FastForwardDisabled
	for pid, p := range st.parts {
		if gate && now < p.wake {
			continue
		}
		// L2-hit replies maturing this cycle.
		wake := int64(math.MaxInt64)
		if len(p.replies) > 0 {
			kept := p.replies[:0]
			for _, r := range p.replies {
				if r.Done <= now {
					st.toSM.Push(r.SM, r, now)
					st.progress++
				} else {
					kept = append(kept, r)
					wake = min(wake, r.Done)
				}
			}
			p.replies = kept
		}

		if p.ctrl.CanAccept() {
			if r := st.toMem.Pop(pid, now); r != nil {
				st.progress++
				if p.l2 != nil && r.Kind == mem.Load {
					if hit, _, _ := p.l2.Access(mem.BlockOf(r.Addr)); hit {
						r.Done = now + int64(p.l2.HitLatency())
						p.replies = append(p.replies, r)
						wake = min(wake, r.Done)
						goto tick
					}
				}
				r.Arrived = now
				p.ctrl.Push(r)
			}
		}
	tick:
		{
			// Scheduling moves a request queue→in-flight without
			// completing anything; detect it by queue shrinkage so a
			// frozen controller (fault injection, modeling bugs) reads
			// as no progress rather than spinning forever.
			qBefore := p.ctrl.QueueLen()
			for _, done := range p.ctrl.Tick(now) {
				done.Done = now
				if g.cfg.Trace != nil {
					g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvDRAMService, SM: done.SM,
						Warp: done.Warp, Addr: done.Addr, Round: done.Round,
						Part: pid, N: now - done.Arrived})
				}
				st.toSM.Push(done.SM, done, now)
				st.progress++
			}
			if p.ctrl.QueueLen() != qBefore {
				st.progress++
			}
		}
		if p.ctrl.QueueLen() > 0 {
			busy = true
		}
		p.wake = min(wake, p.ctrl.NextEvent(now), st.toMem.NextDeliverable(pid))
	}
	return busy
}

func (st *runState) idleMemory() bool {
	for _, p := range st.parts {
		if !p.ctrl.Idle() || len(p.replies) > 0 {
			return false
		}
	}
	return true
}

func (st *runState) idleSMs() bool {
	for _, sm := range st.sms {
		if sm.injectQ.Len() > 0 || len(sm.replies) > 0 {
			return false
		}
	}
	return true
}

func (w *warpRun) finish(now int64, stats *WarpStats) {
	w.done = true
	if w.curRound > 0 && w.stats.RoundEnd[w.curRound] < 0 {
		w.stats.RoundEnd[w.curRound] = now
	}
	w.stats.Finish = now
	*stats = w.stats
}

// issueOne lets scheduler s of the SM issue for at most one warp.
// Under LRR the scan starts after the last issued warp; under GTO the
// scheduler greedily retries the warp it issued last and otherwise
// falls back to the oldest ready warp (subset order encodes age).
func (g *GPU) issueOne(st *runState, sm *smState, smID, s int, now int64) {
	mine := sm.sched[s]
	nLocal := len(mine)
	if nLocal == 0 {
		return
	}
	start := sm.schedPtr[s]
	if g.cfg.Scheduler == GTO {
		prev := start - 1
		if prev < 0 {
			prev = nLocal - 1
		}
		if g.tryIssue(st, sm, smID, mine[prev], now) {
			sm.schedPtr[s] = prev + 1
			if sm.schedPtr[s] >= nLocal {
				sm.schedPtr[s] = 0
			}
			if m := g.cfg.Metrics; m != nil {
				m.issued.Inc()
			}
			return
		}
		start = 0
	}
	for probe := 0; probe < nLocal; probe++ {
		idx := start + probe
		if idx >= nLocal {
			idx -= nLocal
		}
		if g.tryIssue(st, sm, smID, mine[idx], now) {
			sm.schedPtr[s] = (idx + 1) % nLocal
			if m := g.cfg.Metrics; m != nil {
				m.issued.Inc()
			}
			return
		}
	}
	if m := g.cfg.Metrics; m != nil {
		// The slot went unused; classify why. Any candidate blocked on
		// memory makes it a memory stall; otherwise warps waiting out
		// pipeline latency make it a pipeline stall; with every warp
		// finished the scheduler is simply idle.
		blocked, future := false, false
		for _, w := range mine {
			if w.done {
				continue
			}
			if w.blocked || w.pending > 0 {
				blocked = true
				break
			}
			future = true
		}
		switch {
		case blocked:
			m.stallMemory.Inc()
		case future:
			m.stallPipeline.Inc()
		default:
			m.stallIdle.Inc()
		}
	}
}

// tryIssue attempts to issue one instruction for the warp, reporting
// whether the warp consumed the issue slot.
func (g *GPU) tryIssue(st *runState, sm *smState, smID int, w *warpRun, now int64) bool {
	if w.done || w.blocked || w.readyAt > now {
		return false
	}
	if w.pc >= len(w.prog.Instrs) {
		// Ran off the end on a non-memory instruction: retire.
		if w.pending == 0 {
			g.retire(st, w, now)
		} else {
			w.blocked = true
			st.progress++
		}
		return false
	}

	// Consume zero-cost round markers eagerly.
	for w.pc < len(w.prog.Instrs) && w.prog.Instrs[w.pc].Kind == RoundMark {
		ins := &w.prog.Instrs[w.pc]
		if w.curRound > 0 && w.stats.RoundEnd[w.curRound] < 0 {
			w.stats.RoundEnd[w.curRound] = now
		}
		if ins.Round > 0 && ins.Round <= MaxRounds {
			if w.stats.RoundStart[ins.Round] < 0 {
				w.stats.RoundStart[ins.Round] = now
			}
			w.curRound = ins.Round
		} else {
			w.curRound = 0
		}
		w.pc++
	}
	if w.pc >= len(w.prog.Instrs) {
		if w.pending == 0 {
			g.retire(st, w, now)
		} else {
			w.blocked = true
		}
		st.progress++
		return true
	}

	ins := &w.prog.Instrs[w.pc]
	if g.cfg.Trace != nil {
		g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvIssue, SM: smID, Warp: w.prog.ID, PC: w.pc, Round: ins.Round})
	}
	switch ins.Kind {
	case ALU:
		lat := int64(ins.Latency)
		if lat <= 0 {
			lat = int64(g.cfg.ALULatency)
		}
		if issue := g.cfg.issueCycles(); lat < issue {
			lat = issue
		}
		w.readyAt = now + lat
		w.pc++
		st.res.ALUOps++
	case Load, Store:
		if g.delayIssue(st, w, now) {
			break // randomized-delay defense: slot consumed, pc unchanged
		}
		g.issueMemory(st, sm, smID, w, ins, now)
		w.pc++
	case SharedLoad:
		g.issueShared(st, w, ins, now)
		w.pc++
	}
	st.progress++
	return true
}

// delayIssue is the issue-stage seam for the randomized-delay defense:
// when the launch carries a Delay hook, every memory instruction draws
// one stall from the defense stream the first time it reaches the
// front of its warp. A positive draw holds the warp for that many
// cycles and reports true (the instruction retries after the stall);
// delayedPC remembers the draw so the retry — and a zero draw — issues
// immediately.
func (g *GPU) delayIssue(st *runState, w *warpRun, now int64) bool {
	if st.launch.Delay == nil || w.delayedPC == w.pc {
		return false
	}
	w.delayedPC = w.pc
	if d := st.launch.Delay(st.defRNG); d > 0 {
		w.readyAt = now + d
		return true
	}
	return false
}

// issueShared models a shared-memory access: requests to the same bank
// for different words serialize into multiple passes (same-word
// requests broadcast). The warp stalls for the conflict-serialized
// latency; no global-memory traffic is generated.
func (g *GPU) issueShared(st *runState, w *warpRun, ins *Instr, now int64) {
	degree := g.sharedConflictDegree(ins)
	lat := int64(g.cfg.SharedLatency + degree - 1)
	if degree == 0 {
		lat = 1 // fully predicated off
	}
	w.readyAt = now + lat
	round := ins.Round
	if round < 0 || round > MaxRounds {
		round = 0
	}
	w.stats.SharedPasses[round] += degree
	st.res.SharedPasses[round] += uint64(degree)
}

// sharedConflictDegree returns the number of serialized passes the
// access needs: the maximum, over banks, of distinct words requested
// in that bank (0 if no thread is active).
func (g *GPU) sharedConflictDegree(ins *Instr) int {
	banks := g.cfg.SharedBanks
	seen := make(map[int]map[uint64]struct{}, banks)
	degree := 0
	for t, a := range ins.Addrs {
		if ins.Active != nil && !ins.Active[t] {
			continue
		}
		word := a / 4
		bank := int(word % uint64(banks))
		words := seen[bank]
		if words == nil {
			words = make(map[uint64]struct{}, 4)
			seen[bank] = words
		}
		if _, dup := words[word]; dup {
			continue // broadcast
		}
		words[word] = struct{}{}
		if len(words) > degree {
			degree = len(words)
		}
	}
	return degree
}

// planFor selects the subwarp plan governing this instruction: the
// randomized plan everywhere by default; under selective RCoal
// (VulnerableRounds) only the listed rounds are randomized and the
// rest coalesce whole-warp.
func (g *GPU) planFor(st *runState, w *warpRun, round int) core.Plan {
	if !st.selective || (round >= 0 && round <= MaxRounds && st.roundMask[round]) {
		return w.plan
	}
	return st.basePlan
}

// issueMemory runs the (modified) coalescing unit on a warp-wide
// memory instruction: per-thread addresses are reduced to block
// requests, grouped by the governing plan's subwarp ids, filtered
// through the L1 and the MSHR merge table when enabled, and the
// surviving transactions queued for injection.
func (g *GPU) issueMemory(st *runState, sm *smState, smID int, w *warpRun, ins *Instr, now int64) {
	blocks := g.blockScratch[:0]
	for _, a := range ins.Addrs {
		blocks = append(blocks, mem.BlockOf(a))
	}

	round := ins.Round
	if round < 0 || round > MaxRounds {
		round = 0
	}
	txBlocks := g.txScratch[:0]
	m := g.cfg.Metrics
	switch {
	case st.launch.PerThread:
		// Coalescer bypassed (the no-coalescing strawman): one
		// transaction per active thread, duplicates included.
		for t, b := range blocks {
			if ins.Active == nil || ins.Active[t] {
				txBlocks = append(txBlocks, b)
			}
		}
		if m != nil {
			m.observeUncoalesced(len(txBlocks), round)
		}
	case m != nil:
		// Fused pass: block keys and Algorithm-1 group sizes in one
		// coalescing scan, so metrics never re-run the MCU logic.
		var sizes []int
		txBlocks, sizes = g.planFor(st, w, ins.Round).CoalesceBlocksSizes(blocks, ins.Active, txBlocks, m.sizeScratch[:0])
		m.observeSizes(sizes, round)
		m.sizeScratch = sizes
	default:
		txBlocks = g.planFor(st, w, ins.Round).CoalesceBlocks(blocks, ins.Active, txBlocks)
	}
	if st.launch.Shuffle != nil && len(txBlocks) > 1 {
		// Access-pattern shuffling: transaction count (the coalescing
		// channel) is untouched, but the order the LD/ST unit queues
		// them — and therefore DRAM arrival order and row locality — is
		// freshly randomized per request.
		st.launch.Shuffle(st.defRNG, txBlocks)
	}
	if g.cfg.Trace != nil {
		g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvCoalesce, SM: smID, Warp: w.prog.ID,
			Round: round, N: int64(len(txBlocks))})
	}
	g.blockScratch = blocks[:0]

	issued := 0
	for _, b := range txBlocks {
		// Every coalesced transaction counts as an access (the
		// quantity the attack reasons about), even when a cache or
		// the MSHR absorbs it downstream.
		w.stats.RoundTx[round]++
		w.stats.TotalTx++
		st.res.RoundTx[round]++
		st.res.TotalTx++
		issued++
		w.pending++

		if ins.Kind == Load {
			// L1 probe.
			if sm.l1 != nil {
				if hit, _, _ := sm.l1.Access(b); hit {
					sm.replies = append(sm.replies,
						localReply{at: now + int64(sm.l1.HitLatency()), warp: w.prog.ID})
					continue
				}
			}
			// MSHR merge with an outstanding miss to the same block.
			if sm.mshr != nil {
				if _, outstanding := sm.mshr[b]; outstanding {
					sm.mshr[b] = append(sm.mshr[b], w.prog.ID)
					st.res.MSHRMerges++
					continue
				}
				sm.mshr[b] = nil // primary in flight
			}
		}

		if g.cfg.Trace != nil {
			g.cfg.Trace.Emit(Event{Cycle: now, Kind: EvMemTx, SM: smID, Warp: w.prog.ID, Addr: b * mem.BlockBytes, Round: round})
		}
		st.reqID++
		req := g.arena.get()
		addr := b * mem.BlockBytes
		*req = mem.Request{
			ID:    st.reqID,
			Addr:  addr,
			Kind:  kindOf(ins.Kind),
			SM:    smID,
			Warp:  w.prog.ID,
			Round: round,
			Loc:   g.cfg.AddressMap.Decode(addr),
		}
		sm.injectQ.Push(req)
		if m := g.cfg.Metrics; m != nil {
			m.injectDepth.Observe(int64(sm.injectQ.Len()))
		}
	}
	g.txScratch = txBlocks[:0]
	if issued > 0 {
		if m := g.cfg.Metrics; m != nil {
			sm.prt += issued
			m.prtOccupancy.Observe(int64(sm.prt))
		}
		w.blocked = true
	} else {
		// Fully predicated-off instruction: nothing to wait for.
		w.readyAt = now + 1
	}
}
