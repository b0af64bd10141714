// Package dram models a GDDR5 memory partition of the simulated GPU:
// a memory controller running first-ready, first-come-first-served
// (FR-FCFS) scheduling over banked DRAM with the Hynix GDDR5 timing
// parameters of Table I.
//
// The model is command-level but compact: when the scheduler selects a
// request it computes the request's data-return time from the bank's
// row state and the shared data-bus occupancy, then advances the bank
// timing state (tRC/tRAS/tRP/tRCD for activations, tCCD for column
// commands, tRRD across banks). That preserves the two properties the
// RCoal evaluation depends on — service time grows with the number of
// coalesced transactions, and row hits are cheaper than row conflicts —
// without simulating individual DRAM commands cycle by cycle.
package dram

import (
	"fmt"
	"math"

	"rcoal/internal/gpusim/mem"
	"rcoal/internal/metrics"
	"rcoal/internal/ringbuf"
)

// Timing holds the GDDR5 timing parameters in memory-clock cycles
// (Table I: Hynix GDDR5 H5GQ1H24AFR).
type Timing struct {
	CL  int // CAS latency: column command to first data
	RP  int // row precharge
	RC  int // activate-to-activate, same bank
	RAS int // activate-to-precharge, same bank
	CCD int // column-command to column-command, same bank group
	RCD int // activate to column command
	RRD int // activate-to-activate, different banks
	// Burst is the data-bus occupancy of one 64-byte transaction in
	// memory (command-clock) cycles: a 32-bit GDDR5 bus with 8n
	// prefetch moves 32 bytes per command clock, so 64 bytes take 2.
	Burst int
}

// HynixGDDR5 returns the Table I timing: tCL=12, tRP=12, tRC=40,
// tRAS=28, tCCD=2, tRCD=12, tRRD=6.
func HynixGDDR5() Timing {
	return Timing{CL: 12, RP: 12, RC: 40, RAS: 28, CCD: 2, RCD: 12, RRD: 6, Burst: 2}
}

// Scale multiplies every parameter by ratio (core clock / memory
// clock) and rounds up, converting memory-clock timing into the core-
// clock domain the simulator ticks in.
func (t Timing) Scale(ratio float64) Timing {
	s := func(v int) int {
		scaled := int(float64(v)*ratio + 0.9999)
		if scaled < 1 {
			scaled = 1
		}
		return scaled
	}
	return Timing{CL: s(t.CL), RP: s(t.RP), RC: s(t.RC), RAS: s(t.RAS),
		CCD: s(t.CCD), RCD: s(t.RCD), RRD: s(t.RRD), Burst: s(t.Burst)}
}

// Validate rejects non-positive parameters.
func (t Timing) Validate() error {
	for name, v := range map[string]int{"CL": t.CL, "RP": t.RP, "RC": t.RC,
		"RAS": t.RAS, "CCD": t.CCD, "RCD": t.RCD, "RRD": t.RRD, "Burst": t.Burst} {
		if v <= 0 {
			return fmt.Errorf("dram: timing %s = %d must be positive", name, v)
		}
	}
	return nil
}

// queued pairs a request with its pre-decoded location so the FR-FCFS
// scan does not re-decode every queued address every cycle.
type queued struct {
	req *mem.Request
	loc mem.Location
}

type bankState struct {
	openRow  int   // currently open row, -1 if closed
	nextCol  int64 // earliest cycle for the next column command
	nextAct  int64 // earliest cycle for the next activate (tRC)
	nextPre  int64 // earliest cycle the open row may be precharged (tRAS)
	rowHits  uint64
	rowMiss  uint64 // every access that activated a row
	rowConfl uint64 // subset of rowMiss that closed a different open row
	accesses uint64
}

// Controller is one memory partition's FR-FCFS controller.
type Controller struct {
	timing  Timing
	addrMap mem.AddressMap
	banks   []bankState
	queue   []queued // arrival order preserved (FCFS component)
	// pending holds the scheduled requests awaiting data return, in
	// scheduling order. Every column command waits for the data bus
	// and then holds it for Burst >= 1 cycles, so Done strictly
	// increases along the queue: the head is the earliest completion
	// and the completed requests are always a prefix.
	pending  ringbuf.Ring[*mem.Request]
	busFree  int64 // shared data bus availability
	lastAct  int64 // most recent activate, for tRRD
	queueCap int
	doneBuf  []*mem.Request // reused by Tick; valid until the next Tick

	// stallArmed/stallAfter are the fault-injection seam (see
	// InjectStall): when armed, the scheduler freezes once Stats.Accesses
	// reaches stallAfter.
	stallArmed bool
	stallAfter uint64

	// Stats counts controller-level events.
	Stats Stats

	// DepthHist, when non-nil, observes the FR-FCFS queue depth at
	// every enqueue (the depth including the new arrival). Installed by
	// the simulator's metrics layer; the hot path pays one nil check.
	DepthHist *metrics.Histogram
}

// Stats aggregates controller activity. RowMisses counts every access
// that had to activate a row; RowConflicts is the subset that first had
// to close a different open row (the expensive case the RCoal timing
// distributions key on).
type Stats struct {
	Accesses     uint64 // requests serviced
	RowHits      uint64
	RowMisses    uint64
	RowConflicts uint64
	MaxQueue     int
}

// BankStats is one bank's per-launch activity, exported for the
// per-bank row-locality metrics.
type BankStats struct {
	Bank         int    `json:"bank"`
	Accesses     uint64 `json:"accesses"`
	RowHits      uint64 `json:"row_hits"`
	RowMisses    uint64 `json:"row_misses"`
	RowConflicts uint64 `json:"row_conflicts"`
}

// BankStats returns a fresh per-bank statistics slice (index = bank
// id). Snapshot-time only; it allocates.
func (c *Controller) BankStats() []BankStats {
	out := make([]BankStats, len(c.banks))
	for i := range c.banks {
		b := &c.banks[i]
		out[i] = BankStats{Bank: i, Accesses: b.accesses,
			RowHits: b.rowHits, RowMisses: b.rowMiss, RowConflicts: b.rowConfl}
	}
	return out
}

// NewController builds a controller for one partition. queueCap <= 0
// means unbounded.
func NewController(t Timing, m mem.AddressMap, queueCap int) (*Controller, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	banks := make([]bankState, m.Banks)
	for i := range banks {
		banks[i].openRow = -1
	}
	// lastAct starts far in the past so the first activate pays no tRRD.
	return &Controller{timing: t, addrMap: m, banks: banks, queueCap: queueCap,
		lastAct: -int64(t.RRD) - 1}, nil
}

// CanAccept reports whether the request queue has room.
func (c *Controller) CanAccept() bool {
	return c.queueCap <= 0 || len(c.queue) < c.queueCap
}

// Push enqueues a request. It panics if the queue is full; callers
// gate on CanAccept (back-pressure propagates into the interconnect).
func (c *Controller) Push(r *mem.Request) {
	if !c.CanAccept() {
		panic("dram: push into full queue")
	}
	// Requests arrive pre-decoded (Loc is set at creation); fall back
	// to decoding here for callers that push raw requests in tests.
	loc := r.Loc
	if loc == (mem.Location{}) && r.Addr != 0 {
		loc = c.addrMap.Decode(r.Addr)
	}
	c.queue = append(c.queue, queued{req: r, loc: loc})
	if len(c.queue) > c.Stats.MaxQueue {
		c.Stats.MaxQueue = len(c.queue)
	}
	if c.DepthHist != nil {
		c.DepthHist.Observe(int64(len(c.queue)))
	}
}

// QueueLen returns the number of waiting (unscheduled) requests.
func (c *Controller) QueueLen() int { return len(c.queue) }

// InFlight returns the number of scheduled requests whose data has not
// returned yet.
func (c *Controller) InFlight() int { return c.pending.Len() }

// Tick advances the controller to cycle now: it schedules at most one
// request (FR-FCFS: the oldest row-hit if any, otherwise the oldest
// request) and returns every request whose data is ready by now. The
// returned slice is reused by the next Tick call; callers consume it
// immediately.
func (c *Controller) Tick(now int64) []*mem.Request {
	c.schedule(now)
	return c.collect(now)
}

// InjectStall arms the controller's test-only fault seam
// (internal/faultinject): once the controller has scheduled `after`
// requests it stops scheduling entirely, so queued requests wait
// forever. Stats reset per launch (Reset), so the threshold counts the
// current launch's accesses; the armed state itself survives Reset.
func (c *Controller) InjectStall(after uint64) {
	c.stallArmed = true
	c.stallAfter = after
}

func (c *Controller) schedule(now int64) {
	if len(c.queue) == 0 || (c.stallArmed && c.Stats.Accesses >= c.stallAfter) {
		return
	}
	// First-ready: oldest request whose bank has the needed row open
	// and can take a column command now.
	pick := -1
	for i := range c.queue {
		loc := &c.queue[i].loc
		b := &c.banks[loc.Bank]
		if b.openRow == loc.Row && b.nextCol <= now && c.busFree <= now {
			pick = i
			break
		}
	}
	if pick == -1 {
		// FCFS fallback: the oldest request, whenever its bank allows.
		pick = 0
	}
	r := c.queue[pick].req
	loc := c.queue[pick].loc
	b := &c.banks[loc.Bank]

	var colCmd int64
	if b.openRow == loc.Row {
		// Row hit: column command when the bank and bus allow.
		colCmd = max(now, b.nextCol, c.busFree)
		b.rowHits++
		c.Stats.RowHits++
	} else {
		// Row miss/conflict: precharge (respecting tRAS) + activate
		// (respecting tRC and tRRD) + tRCD before the column command.
		act := max(now, b.nextAct, c.lastAct+int64(c.timing.RRD))
		if b.openRow >= 0 {
			act = max(act, b.nextPre+int64(c.timing.RP))
			b.rowConfl++
			c.Stats.RowConflicts++
		}
		b.openRow = loc.Row
		b.nextAct = act + int64(c.timing.RC)
		b.nextPre = act + int64(c.timing.RAS)
		c.lastAct = act
		colCmd = max(act+int64(c.timing.RCD), c.busFree)
		b.rowMiss++
		c.Stats.RowMisses++
	}
	if colCmd < c.busFree {
		panic("dram: column command before the data bus frees breaks the in-flight Done order")
	}
	b.nextCol = colCmd + int64(c.timing.CCD)
	c.busFree = colCmd + int64(c.timing.Burst)
	r.Done = colCmd + int64(c.timing.CL) + int64(c.timing.Burst)
	b.accesses++
	c.Stats.Accesses++

	c.queue = append(c.queue[:pick], c.queue[pick+1:]...)
	c.pending.Push(r)
}

// collect pops the completed prefix of the in-flight queue, in
// scheduling order.
func (c *Controller) collect(now int64) []*mem.Request {
	if c.pending.Len() == 0 || now < c.pending.Peek().Done {
		return nil
	}
	done := c.doneBuf[:0]
	for c.pending.Len() > 0 && c.pending.Peek().Done <= now {
		done = append(done, c.pending.Pop())
	}
	c.doneBuf = done
	return done
}

// Idle reports whether the controller has no queued or in-flight work.
func (c *Controller) Idle() bool { return len(c.queue) == 0 && c.pending.Len() == 0 }

// NextEvent returns the earliest cycle strictly after now at which the
// controller can make progress, or math.MaxInt64 when idle. While
// requests await scheduling the controller schedules one per cycle, so
// its horizon is now+1; with only in-flight requests the next event is
// the earliest data return. Fast-forwarding to the returned cycle is
// safe: Tick is a no-op at every cycle in between.
func (c *Controller) NextEvent(now int64) int64 {
	if len(c.queue) > 0 {
		return now + 1
	}
	if c.pending.Len() == 0 {
		return math.MaxInt64
	}
	return c.pending.Peek().Done
}

// Snapshot is a controller's complete mid-launch state, captured for
// copy-on-write prefix forking. Requests are recorded as indices into
// the caller's interned request table (not as pointers), so a snapshot
// stays valid — and shareable across any number of forks — after the
// live request arena is reused.
type Snapshot struct {
	banks   []bankState
	queue   []snapQueued
	pending []int
	busFree int64
	lastAct int64
	stats   Stats
}

type snapQueued struct {
	req int
	loc mem.Location
}

// Snapshot captures the controller's state. intern maps each live
// *mem.Request to a stable index in the caller's request table;
// request payloads (including the in-flight Done times) travel with
// the interned values, not with the snapshot.
func (c *Controller) Snapshot(intern func(*mem.Request) int) *Snapshot {
	s := &Snapshot{
		banks:   append([]bankState(nil), c.banks...),
		busFree: c.busFree,
		lastAct: c.lastAct,
		stats:   c.Stats,
	}
	for _, q := range c.queue {
		s.queue = append(s.queue, snapQueued{req: intern(q.req), loc: q.loc})
	}
	for _, r := range c.pending.Snapshot(nil) {
		s.pending = append(s.pending, intern(r))
	}
	return s
}

// Restore rewinds the controller to the snapshot, materializing queued
// and in-flight requests through req (interned index → fresh live
// request). The controller must have the snapshot's bank count (same
// address map), which fork-compatibility checks guarantee upstream.
func (c *Controller) Restore(s *Snapshot, req func(int) *mem.Request) {
	if len(c.banks) != len(s.banks) {
		panic(fmt.Sprintf("dram: restore across bank counts (%d != %d)", len(c.banks), len(s.banks)))
	}
	copy(c.banks, s.banks)
	c.queue = c.queue[:0]
	for _, q := range s.queue {
		c.queue = append(c.queue, queued{req: req(q.req), loc: q.loc})
	}
	c.pending.Reset()
	for _, i := range s.pending {
		c.pending.Push(req(i))
	}
	c.busFree = s.busFree
	c.lastAct = s.lastAct
	c.Stats = s.stats
}

// Reset clears all bank, queue, and statistics state, keeping the
// backing buffers, so one controller can serve many launches without
// reallocating.
func (c *Controller) Reset() {
	for i := range c.banks {
		c.banks[i] = bankState{openRow: -1}
	}
	c.queue = c.queue[:0]
	c.pending.Reset()
	c.busFree = 0
	c.lastAct = -int64(c.timing.RRD) - 1
	c.Stats = Stats{}
}
