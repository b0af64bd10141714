package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names a span is attributed to. A span's layer is the prefix of
// its name before the first dot ("gpusim.run" belongs to gpusim).
const (
	layerCell    = "cell"
	layerKernels = "kernels"
	layerGPUSim  = "gpusim"
	layerAttack  = "attack"
	layerDist    = "dist"
)

// span is one timed interval at a layer boundary. Times are offsets
// from the tracer's epoch.
type span struct {
	id, parent int
	name       string
	pass       int
	track      int
	start, end time.Duration
}

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i >= 0 {
		return s.name[:i]
	}
	return s.name
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory for the whole traced run; they are
// written out once, as a Chrome trace, when the run ends. A nil
// *tracer records nothing, but spans opened on it still measure their
// durations, so the untraced reference pass runs the same code.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	pass   atomic.Int64

	mu    sync.Mutex
	spans []span
	// busy[i] is true while a top-level span holds row i of the trace.
	// Row 0 belongs to the pass span.
	busy []bool
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), busy: []bool{true}} }

// openSpan is a span in progress.
type openSpan struct {
	t         *tracer
	id        int
	parent    int
	pass      int
	track     int
	ownsTrack bool
	name      string
	start     time.Time
}

// open starts a span under parent, on the parent's row.
func (t *tracer) open(name string, parent openSpan) openSpan {
	return t.openOn(name, parent.id, parent.track)
}

func (t *tracer) openOn(name string, parent, track int) openSpan {
	s := openSpan{t: t, parent: parent, track: track, name: name, start: time.Now()}
	if t != nil {
		s.id, s.pass = int(t.nextID.Add(1)), int(t.pass.Load())
	}
	return s
}

// openTop starts a span that holds a row of the trace to itself until
// it closes: one per concurrently running cell or request, so spans
// sharing a row always nest.
func (t *tracer) openTop(name string, parent openSpan) openSpan {
	if t == nil {
		return t.open(name, parent)
	}
	t.mu.Lock()
	track := len(t.busy)
	for i, b := range t.busy {
		if !b {
			track = i
			break
		}
	}
	if track == len(t.busy) {
		t.busy = append(t.busy, false)
	}
	t.busy[track] = true
	t.mu.Unlock()
	s := t.openOn(name, parent.id, track)
	s.ownsTrack = true
	return s
}

// startPass opens the root span of pass n; every other span of the
// pass descends from it.
func (t *tracer) startPass(n int) openSpan {
	if t != nil {
		t.pass.Store(int64(n))
	}
	return t.openOn("pass", 0, 0)
}

// close ends the span, records it, and returns its duration.
func (s openSpan) close() time.Duration {
	end := time.Now()
	d := end.Sub(s.start)
	t := s.t
	if t == nil {
		return d
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		id: s.id, parent: s.parent, name: s.name, pass: s.pass,
		track: s.track, start: s.start.Sub(t.epoch), end: end.Sub(t.epoch),
	})
	if s.ownsTrack {
		t.busy[s.track] = false
	}
	t.mu.Unlock()
	return d
}

// passSpans returns the spans recorded for pass n.
func (t *tracer) passSpans(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.pass == n {
			out = append(out, s)
		}
	}
	return out
}

// nestingViolations counts spans that start before or end after their
// parent.
func nestingViolations(spans []span) int {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.id] = s
	}
	n := 0
	for _, s := range spans {
		if p, ok := byID[s.parent]; ok && (s.start < p.start || s.end > p.end) {
			n++
		}
	}
	return n
}

// selfTimes returns, per layer, the summed self time of the given
// spans: each span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.parent] = append(kids[s.parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer()] += s.dur() - covered(s, kids[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// chromeEvent is one record of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome serializes every recorded span as a Chrome trace: one
// complete event per span, rows named by track, events in timestamp
// order with parents ahead of the children they contain.
func (t *tracer) writeChrome(w io.Writer, title string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	rows := len(t.busy)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].dur() > spans[j].dur()
	})
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": title}}}
	for r := 0; r < rows; r++ {
		name := fmt.Sprintf("slot %d", r)
		if r == 0 {
			name = "passes"
		}
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: r, Args: map[string]any{"name": name}})
	}
	for _, s := range spans {
		d := us(s.dur())
		evs = append(evs, chromeEvent{
			Name: s.name, Cat: s.layer(), Ph: "X", Ts: us(s.start), Dur: &d, Pid: 1, Tid: s.track,
			Args: map[string]any{"id": s.id, "parent": s.parent, "pass": s.pass},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
}

// account is the "where the time went" split of traced passes, in
// slot-seconds: a pass with C concurrent slots offers C × wall, which
// the layers' self times and the slots' idle time divide between them.
type account struct {
	capacity time.Duration
	self     map[string]time.Duration
	idle     time.Duration
}

// accountPass splits one pass. Top-level spans are the children of the
// pass span; whatever slot time they leave unused is idle.
func accountPass(spans []span, slots int) account {
	a := account{self: map[string]time.Duration{}}
	var root span
	for _, s := range spans {
		if s.parent == 0 {
			root = s
		}
	}
	a.capacity = time.Duration(slots) * root.dur()
	var busy time.Duration
	for _, s := range spans {
		if s.parent == root.id && s.id != root.id {
			busy += s.dur()
		}
	}
	a.idle = a.capacity - busy
	for layer, d := range selfTimes(spans) {
		if layer != "pass" {
			a.self[layer] += d
		}
	}
	return a
}

func (a *account) add(b account) {
	a.capacity += b.capacity
	a.idle += b.idle
	if a.self == nil {
		a.self = map[string]time.Duration{}
	}
	for k, v := range b.self {
		a.self[k] += v
	}
}

// frac returns d as a share of the account's capacity.
func (a account) frac(d time.Duration) float64 {
	if a.capacity <= 0 {
		return 0
	}
	return float64(d) / float64(a.capacity)
}

// accountColumns are the table's columns, in order; "cell" is time a
// cell or worker spent between layer calls (bookkeeping, correlation
// sums), and dist includes the coordinator's checkpoint appends.
var accountColumns = []string{layerKernels, layerGPUSim, layerAttack, layerDist, layerCell}

// printTable writes the "where the time went" table.
func (a account) printTable(w io.Writer, workload string, passes, slots int) {
	fmt.Fprintf(w, "where the time went: %s (%d traced pass(es), %d slot(s), %.2f slot-s)\n",
		workload, passes, slots, a.capacity.Seconds())
	fmt.Fprintf(w, "  %-10s %-10s %-10s %-16s %-10s %-12s %s\n",
		"kernels", "gpusim", "attack", "dist/checkpoint", "cell-other", "runner-idle", "accounted")
	sum := a.idle
	cols := make([]any, 0, 7)
	for _, c := range accountColumns {
		sum += a.self[c]
		cols = append(cols, pct(a.frac(a.self[c])))
	}
	cols = append(cols, pct(a.frac(a.idle)), pct(a.frac(sum)))
	fmt.Fprintf(w, "  %-10s %-10s %-10s %-16s %-10s %-12s %s\n", cols...)
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
