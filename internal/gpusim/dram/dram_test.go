package dram

import (
	"testing"

	"rcoal/internal/gpusim/mem"
	"rcoal/internal/rng"
)

func newTestController(t *testing.T, queueCap int) *Controller {
	t.Helper()
	c, err := NewController(HynixGDDR5(), mem.DefaultAddressMap(), queueCap)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func drain(c *Controller, start int64, maxCycles int64) (done []*mem.Request, end int64) {
	for now := start; now < start+maxCycles; now++ {
		done = append(done, c.Tick(now)...)
		if c.Idle() {
			return done, now
		}
	}
	return done, start + maxCycles
}

func TestTimingValidate(t *testing.T) {
	if err := HynixGDDR5().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := HynixGDDR5()
	bad.CL = 0
	if bad.Validate() == nil {
		t.Fatal("zero CL validated")
	}
}

func TestTimingScale(t *testing.T) {
	s := HynixGDDR5().Scale(1400.0 / 924.0)
	if s.CL < 12 || s.CL > 19 {
		t.Errorf("scaled CL = %d, want ≈18", s.CL)
	}
	if s.CCD < 2 {
		t.Errorf("scaled CCD = %d, want >= 2", s.CCD)
	}
	// Scaling by a tiny ratio must not produce zeros.
	tiny := HynixGDDR5().Scale(0.01)
	if err := tiny.Validate(); err != nil {
		t.Errorf("tiny scale produced invalid timing: %v", err)
	}
}

func TestSingleRequestLatency(t *testing.T) {
	c := newTestController(t, 0)
	r := &mem.Request{ID: 1, Addr: 0}
	c.Push(r)
	done, _ := drain(c, 0, 1000)
	if len(done) != 1 {
		t.Fatalf("serviced %d requests, want 1", len(done))
	}
	tm := HynixGDDR5()
	// Cold row: RCD + CL + Burst (no precharge needed on a closed bank).
	want := int64(tm.RCD + tm.CL + tm.Burst)
	if done[0].Done != want {
		t.Errorf("first access done at %d, want %d", done[0].Done, want)
	}
	if c.Stats.RowMisses != 1 || c.Stats.RowHits != 0 {
		t.Errorf("stats: %+v", c.Stats)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	tm := HynixGDDR5()
	m := mem.DefaultAddressMap()

	// Two accesses to the same row: second is a row hit.
	c1, _ := NewController(tm, m, 0)
	c1.Push(&mem.Request{ID: 1, Addr: 0})
	c1.Push(&mem.Request{ID: 2, Addr: 64})
	done1, end1 := drain(c1, 0, 10000)
	if len(done1) != 2 || c1.Stats.RowHits != 1 {
		t.Fatalf("same-row: %d done, stats %+v", len(done1), c1.Stats)
	}

	// Two accesses to different rows of the same bank: row conflict.
	// Same bank repeats every Partitions*Banks chunks; same bank next
	// row is offset by Partitions*Banks*ChunkBytes*(RowBytes/ChunkBytes).
	rowStride := uint64(m.Partitions * m.Banks * m.RowBytes)
	c2, _ := NewController(tm, m, 0)
	c2.Push(&mem.Request{ID: 1, Addr: 0})
	c2.Push(&mem.Request{ID: 2, Addr: rowStride})
	done2, end2 := drain(c2, 0, 10000)
	if len(done2) != 2 || c2.Stats.RowMisses != 2 {
		t.Fatalf("conflict: %d done, stats %+v", len(done2), c2.Stats)
	}

	if end1 >= end2 {
		t.Errorf("row hit pair (%d cycles) not faster than conflict pair (%d)", end1, end2)
	}
}

func TestBankParallelismBeatsSerialBank(t *testing.T) {
	tm := HynixGDDR5()
	m := mem.DefaultAddressMap()
	rowStride := uint64(m.Partitions * m.Banks * m.RowBytes)
	bankStride := uint64(m.Partitions * m.ChunkBytes) // next bank, same partition

	// Four row-conflicting accesses on one bank...
	serial, _ := NewController(tm, m, 0)
	for i := uint64(0); i < 4; i++ {
		serial.Push(&mem.Request{ID: i, Addr: i * rowStride})
	}
	_, serialEnd := drain(serial, 0, 100000)

	// ...versus four accesses across four different banks.
	par, _ := NewController(tm, m, 0)
	for i := uint64(0); i < 4; i++ {
		par.Push(&mem.Request{ID: i, Addr: i * bankStride})
	}
	_, parEnd := drain(par, 0, 100000)

	if parEnd >= serialEnd {
		t.Errorf("bank-parallel end %d not faster than serial-bank end %d", parEnd, serialEnd)
	}
}

func TestServiceTimeGrowsWithTransactions(t *testing.T) {
	// The property RCoal's performance results rest on: more coalesced
	// transactions take longer to service.
	var ends []int64
	for _, n := range []int{4, 8, 16, 32} {
		c := newTestController(t, 0)
		for i := 0; i < n; i++ {
			c.Push(&mem.Request{ID: uint64(i), Addr: uint64(i) * 64})
		}
		_, end := drain(c, 0, 100000)
		ends = append(ends, end)
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] <= ends[i-1] {
			t.Errorf("service time not increasing: %v", ends)
		}
	}
}

func TestFRFCFSPrefersRowHit(t *testing.T) {
	tm := HynixGDDR5()
	m := mem.DefaultAddressMap()
	c, _ := NewController(tm, m, 0)
	rowStride := uint64(m.Partitions * m.Banks * m.RowBytes)

	// Open row 0 with a first access, let it complete.
	c.Push(&mem.Request{ID: 0, Addr: 0})
	var now int64
	for ; !c.Idle(); now++ {
		c.Tick(now)
	}

	// Now queue a conflicting access (older) and a row hit (younger).
	conflict := &mem.Request{ID: 1, Addr: rowStride}
	hit := &mem.Request{ID: 2, Addr: 64}
	c.Push(conflict)
	c.Push(hit)
	for ; !c.Idle(); now++ {
		c.Tick(now)
	}
	if hit.Done >= conflict.Done {
		t.Errorf("row hit done at %d, conflict at %d: FR-FCFS should service the hit first", hit.Done, conflict.Done)
	}
	if c.Stats.RowHits == 0 {
		t.Error("no row hits recorded")
	}
}

func TestQueueCapacity(t *testing.T) {
	c := newTestController(t, 2)
	c.Push(&mem.Request{ID: 0, Addr: 0})
	c.Push(&mem.Request{ID: 1, Addr: 64})
	if c.CanAccept() {
		t.Error("queue of cap 2 with 2 entries accepts more")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push into full queue did not panic")
		}
	}()
	c.Push(&mem.Request{ID: 2, Addr: 128})
}

func TestStatsAndIdle(t *testing.T) {
	c := newTestController(t, 0)
	if !c.Idle() {
		t.Error("new controller not idle")
	}
	c.Push(&mem.Request{ID: 0, Addr: 0})
	if c.Idle() || c.QueueLen() != 1 || c.InFlight() != 0 {
		t.Error("queue accounting wrong after push")
	}
	c.Tick(0)
	if c.QueueLen() != 0 || c.InFlight() != 1 {
		t.Error("queue accounting wrong after schedule")
	}
	done, _ := drain(c, 1, 1000)
	if len(done) != 1 || !c.Idle() || c.Stats.Accesses != 1 {
		t.Errorf("drain: %d done, stats %+v", len(done), c.Stats)
	}
}

func TestNewControllerRejectsBadConfig(t *testing.T) {
	bad := HynixGDDR5()
	bad.RCD = -1
	if _, err := NewController(bad, mem.DefaultAddressMap(), 0); err == nil {
		t.Error("bad timing accepted")
	}
	badMap := mem.DefaultAddressMap()
	badMap.Banks = 0
	if _, err := NewController(HynixGDDR5(), badMap, 0); err == nil {
		t.Error("bad address map accepted")
	}
}

// TestInjectStall: the fault seam freezes scheduling after the
// threshold while keeping the queue (and NextEvent) alive, so the
// upstream watchdog — not a hang — must resolve it.
func TestInjectStall(t *testing.T) {
	c := newTestController(t, 0)
	c.InjectStall(1) // service exactly one request, then freeze
	c.Push(&mem.Request{ID: 1, Addr: 0})
	c.Push(&mem.Request{ID: 2, Addr: 1 << 20})
	done, _ := drain(c, 0, 500)
	if len(done) != 1 || done[0].ID != 1 {
		t.Fatalf("serviced %d requests, want only the first", len(done))
	}
	if c.Idle() || c.QueueLen() != 1 {
		t.Fatalf("stalled controller: idle=%v queue=%d, want live queue of 1", c.Idle(), c.QueueLen())
	}
	// A stalled-but-queued controller still claims next-cycle activity:
	// the simulator keeps stepping and its watchdog sees no progress.
	if got := c.NextEvent(1000); got != 1001 {
		t.Errorf("NextEvent = %d, want 1001", got)
	}

	// Reset clears the launch's access count but keeps the armament:
	// an immediately-stalled controller (threshold 0) never schedules.
	c.Reset()
	c.InjectStall(0)
	c.Push(&mem.Request{ID: 3, Addr: 0})
	if done, _ := drain(c, 0, 200); len(done) != 0 {
		t.Fatalf("fully stalled controller serviced %d requests", len(done))
	}
}

// refCollector is the linear-scan reference for the controller's
// in-flight bookkeeping: it records requests in the order the
// controller schedules them and, each cycle, returns every recorded
// request whose data has returned, scanning the whole list — the
// in-flight model before it became a Done-ordered FIFO.
type refCollector struct {
	inflight []*mem.Request
}

func (rc *refCollector) collect(now int64) []*mem.Request {
	var done []*mem.Request
	kept := rc.inflight[:0]
	for _, r := range rc.inflight {
		if r.Done <= now {
			done = append(done, r)
		} else {
			kept = append(kept, r)
		}
	}
	rc.inflight = kept
	return done
}

// TestInFlightFIFOMatchesLinearScan is the property test for the
// Done-ordered in-flight queue. Random arrival streams (random banks
// and rows, random gaps, queue caps, an armed stall, a mid-flight
// Snapshot/Restore into a fresh controller, and cycles on which the
// caller does not tick, so one Tick can collect several completions)
// must complete in strictly increasing Done, equal to the linear-scan
// reference tick by tick, with NextEvent reporting the reference's
// earliest completion.
func TestInFlightFIFOMatchesLinearScan(t *testing.T) {
	r := rng.New(2024)
	for trial := 0; trial < 200; trial++ {
		queueCap := []int{0, 1, 2, 4, 8}[r.Intn(5)]
		c := newTestController(t, queueCap)
		stallAt := uint64(0)
		if r.Intn(4) == 0 {
			stallAt = uint64(1 + r.Intn(40))
			c.InjectStall(stallAt)
		}
		n := 1 + r.Intn(80)
		rows := 1 + r.Intn(4)
		var arrivals []*mem.Request
		for i := 0; i < n; i++ {
			arrivals = append(arrivals, &mem.Request{ID: uint64(i + 1),
				Loc: mem.Location{Bank: r.Intn(16), Row: r.Intn(rows)}})
		}
		gap := r.Intn(6)
		tickOdds := 1 + r.Intn(3) // tick on 1 in tickOdds cycles
		restoreAt := int64(-1)
		if r.Intn(2) == 0 {
			restoreAt = int64(r.Intn(200))
		}

		var ref refCollector
		var table []*mem.Request
		scheduled := map[*mem.Request]bool{}
		lastDone := int64(-1)
		completed := 0
		next := 0
		for now := int64(0); now < 20000; now++ {
			if now == restoreAt {
				idx := map[*mem.Request]int{}
				snap := c.Snapshot(func(q *mem.Request) int {
					if i, ok := idx[q]; ok {
						return i
					}
					table = append(table, q)
					idx[q] = len(table) - 1
					return len(table) - 1
				})
				c = newTestController(t, queueCap)
				if stallAt > 0 {
					c.InjectStall(stallAt)
				}
				c.Restore(snap, func(i int) *mem.Request { return table[i] })
			}
			if next < len(arrivals) && (gap == 0 || now%int64(gap+1) == 0) && c.CanAccept() {
				c.Push(arrivals[next])
				next++
			}
			if r.Intn(tickOdds) != 0 {
				continue
			}
			got := c.Tick(now)
			for _, q := range arrivals[:next] {
				if q.Done != 0 && !scheduled[q] {
					scheduled[q] = true
					ref.inflight = append(ref.inflight, q)
				}
			}
			want := ref.collect(now)
			if len(got) != len(want) {
				t.Fatalf("trial %d cycle %d: %d completions, reference %d", trial, now, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d cycle %d: completion %d is request %d, reference %d", trial, now, i, got[i].ID, want[i].ID)
				}
				if got[i].Done <= lastDone {
					t.Fatalf("trial %d cycle %d: Done %d after %d, want strictly increasing", trial, now, got[i].Done, lastDone)
				}
				lastDone = got[i].Done
			}
			completed += len(got)
			if c.QueueLen() == 0 && len(ref.inflight) > 0 {
				minDone := ref.inflight[0].Done
				for _, q := range ref.inflight {
					minDone = min(minDone, q.Done)
				}
				if ev := c.NextEvent(now); ev != minDone {
					t.Fatalf("trial %d cycle %d: NextEvent %d, reference earliest Done %d", trial, now, ev, minDone)
				}
			}
			if c.InFlight() != len(ref.inflight) {
				t.Fatalf("trial %d cycle %d: %d in flight, reference %d", trial, now, c.InFlight(), len(ref.inflight))
			}
			if next == len(arrivals) && c.Idle() {
				break
			}
			if stallAt > 0 && c.Stats.Accesses >= stallAt && c.InFlight() == 0 && (next == len(arrivals) || !c.CanAccept()) {
				break // frozen: nothing more can complete
			}
		}
		if stallAt == 0 && completed != n {
			t.Fatalf("trial %d: %d of %d requests completed", trial, completed, n)
		}
		if stallAt > 0 && completed != min(n, int(stallAt)) {
			t.Fatalf("trial %d: stalled after %d accesses, %d of %d completed", trial, stallAt, completed, n)
		}
	}
}

// BenchmarkControllerDeepInFlight drives one controller with a burst of
// 512 row-hit-heavy requests, which keeps hundreds in flight at once
// (each column command holds the data bus for Burst cycles while the
// scheduler takes one request per cycle). It isolates the cost of
// in-flight bookkeeping; "inflight" reports the peak depth.
func BenchmarkControllerDeepInFlight(b *testing.B) {
	c, err := NewController(HynixGDDR5(), mem.DefaultAddressMap(), 0)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(7)
	reqs := make([]mem.Request, 512)
	locs := make([]mem.Location, len(reqs))
	for i := range locs {
		locs[i] = mem.Location{Bank: r.Intn(16), Row: r.Intn(2)}
	}
	peak := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		for j := range reqs {
			reqs[j] = mem.Request{ID: uint64(j + 1), Loc: locs[j]}
			c.Push(&reqs[j])
		}
		for now := int64(0); !c.Idle(); now++ {
			c.Tick(now)
			peak = max(peak, c.InFlight())
		}
	}
	b.ReportMetric(float64(peak), "inflight")
}
