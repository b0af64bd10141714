// Package icnt models the on-chip interconnect of the simulated GPU:
// one crossbar per direction (SM→memory-partition and partition→SM,
// Table I) with a fixed pipeline latency and one packet per output
// port per cycle of delivery bandwidth, approximating the iSLIP-
// allocated crossbar of the baseline architecture with round-robin
// fairness per output port.
package icnt

import (
	"fmt"
	"math"

	"rcoal/internal/gpusim/mem"
	"rcoal/internal/metrics"
	"rcoal/internal/ringbuf"
)

// packet wraps a request with its earliest possible delivery cycle.
type packet struct {
	req     *mem.Request
	readyAt int64
}

// Crossbar is one direction of the interconnect. Packets pushed to an
// output port are delivered in order, no earlier than latency cycles
// after injection, at most one per cycle per port.
type Crossbar struct {
	latency   int64
	occupancy int64
	ports     []ringbuf.Ring[packet]
	// nextSlot[p] is the next cycle at which port p may deliver,
	// enforcing the per-packet port occupancy.
	nextSlot []int64

	// dropPort/dropNth/dropSeen are the fault-injection seam (see
	// InjectDrop): when dropNth > 0, the dropNth-th push toward
	// dropPort is silently swallowed.
	dropPort int
	dropNth  uint64
	dropSeen uint64

	// Stats
	Delivered uint64
	MaxQueue  int

	// DepthHist, when non-nil, observes a port's queued-packet count at
	// every injection (the depth including the new packet). Installed by
	// the simulator's metrics layer; the hot path pays one nil check.
	DepthHist *metrics.Histogram
}

// NewCrossbar builds a crossbar with the given number of output ports
// and pipeline latency in core cycles. Each packet occupies its output
// port for occupancy cycles (its flit count: a 64-byte data reply is
// two 32-byte flits, a request header one).
func NewCrossbar(ports int, latency, occupancy int) (*Crossbar, error) {
	if ports <= 0 {
		return nil, fmt.Errorf("icnt: ports %d must be positive", ports)
	}
	if latency < 1 {
		return nil, fmt.Errorf("icnt: latency %d must be >= 1", latency)
	}
	if occupancy < 1 {
		return nil, fmt.Errorf("icnt: occupancy %d must be >= 1", occupancy)
	}
	return &Crossbar{
		latency:   int64(latency),
		occupancy: int64(occupancy),
		ports:     make([]ringbuf.Ring[packet], ports),
		nextSlot:  make([]int64, ports),
	}, nil
}

// InjectDrop arms the crossbar's test-only fault seam
// (internal/faultinject): the nth push (1-based) toward output port
// dst is silently swallowed — the packet never arrives and no error is
// raised, modeling a lost reply. The push counter resets with the
// crossbar (Reset), so nth counts the current launch's pushes; the
// armed state itself survives Reset.
func (x *Crossbar) InjectDrop(dst int, nth uint64) {
	x.dropPort = dst
	x.dropNth = nth
	x.dropSeen = 0
}

// Push injects a request toward output port dst at cycle now.
func (x *Crossbar) Push(dst int, r *mem.Request, now int64) {
	if dst < 0 || dst >= len(x.ports) {
		panic(fmt.Sprintf("icnt: push to port %d of %d", dst, len(x.ports)))
	}
	if x.dropNth > 0 && dst == x.dropPort {
		x.dropSeen++
		if x.dropSeen == x.dropNth {
			return // fault injected: the packet vanishes
		}
	}
	x.ports[dst].Push(packet{req: r, readyAt: now + x.latency})
	if n := x.ports[dst].Len(); n > x.MaxQueue {
		x.MaxQueue = n
	}
	if x.DepthHist != nil {
		x.DepthHist.Observe(int64(x.ports[dst].Len()))
	}
}

// Pop returns at most one request deliverable at port dst on cycle
// now, honoring in-order delivery, pipeline latency, and port
// bandwidth. It returns nil when nothing is deliverable.
func (x *Crossbar) Pop(dst int, now int64) *mem.Request {
	q := &x.ports[dst]
	if q.Len() == 0 {
		return nil
	}
	if q.Peek().readyAt > now || x.nextSlot[dst] > now {
		return nil
	}
	head := q.Pop()
	x.nextSlot[dst] = now + x.occupancy
	x.Delivered++
	return head.req
}

// NextDeliverable returns the earliest cycle at which port dst could
// deliver its head packet, or math.MaxInt64 when the port is empty.
// Packets are queued in injection order, so the head carries the
// minimum readyAt; the port's bandwidth slot can only push delivery
// later. This is the port's event horizon for fast-forwarding: no
// cycle strictly before the returned value can observe a delivery.
func (x *Crossbar) NextDeliverable(dst int) int64 {
	q := &x.ports[dst]
	if q.Len() == 0 {
		return math.MaxInt64
	}
	t := q.Peek().readyAt
	if s := x.nextSlot[dst]; s > t {
		t = s
	}
	return t
}

// Pending returns the number of packets queued for port dst.
func (x *Crossbar) Pending(dst int) int { return x.ports[dst].Len() }

// Idle reports whether no packets are queued on any port.
func (x *Crossbar) Idle() bool {
	for i := range x.ports {
		if x.ports[i].Len() > 0 {
			return false
		}
	}
	return true
}

// Ports returns the number of output ports.
func (x *Crossbar) Ports() int { return len(x.ports) }

// Snapshot is a crossbar's complete mid-launch state, captured for
// copy-on-write prefix forking. Queued packets reference requests as
// indices into the caller's interned request table, so a snapshot
// stays valid — and shareable across forks — after the live request
// arena is reused.
type Snapshot struct {
	ports     [][]snapPacket
	nextSlot  []int64
	delivered uint64
	maxQueue  int
	dropSeen  uint64
}

type snapPacket struct {
	req     int
	readyAt int64
}

// Snapshot captures the crossbar's state; intern maps each in-flight
// *mem.Request to a stable index in the caller's request table.
func (x *Crossbar) Snapshot(intern func(*mem.Request) int) *Snapshot {
	s := &Snapshot{
		ports:     make([][]snapPacket, len(x.ports)),
		nextSlot:  append([]int64(nil), x.nextSlot...),
		delivered: x.Delivered,
		maxQueue:  x.MaxQueue,
		dropSeen:  x.dropSeen,
	}
	var scratch []packet
	for i := range x.ports {
		scratch = x.ports[i].Snapshot(scratch[:0])
		for _, p := range scratch {
			s.ports[i] = append(s.ports[i], snapPacket{req: intern(p.req), readyAt: p.readyAt})
		}
	}
	return s
}

// Restore rewinds the crossbar to the snapshot, materializing queued
// packets' requests through req (interned index → fresh live request).
// The crossbar must have the snapshot's port count, which
// fork-compatibility checks guarantee upstream.
func (x *Crossbar) Restore(s *Snapshot, req func(int) *mem.Request) {
	if len(x.ports) != len(s.ports) {
		panic(fmt.Sprintf("icnt: restore across port counts (%d != %d)", len(x.ports), len(s.ports)))
	}
	for i := range x.ports {
		x.ports[i].Reset()
		for _, p := range s.ports[i] {
			x.ports[i].Push(packet{req: req(p.req), readyAt: p.readyAt})
		}
	}
	copy(x.nextSlot, s.nextSlot)
	x.Delivered = s.delivered
	x.MaxQueue = s.maxQueue
	x.dropSeen = s.dropSeen
}

// Reset drops all queued packets and bandwidth state, keeping the port
// buffers for reuse, so one crossbar can serve many launches without
// reallocating.
func (x *Crossbar) Reset() {
	for i := range x.ports {
		x.ports[i].Reset()
		x.nextSlot[i] = 0
	}
	x.Delivered = 0
	x.MaxQueue = 0
	x.dropSeen = 0
}
