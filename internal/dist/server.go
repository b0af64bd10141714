package dist

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"rcoal/internal/checkpoint"
	"rcoal/internal/metrics"
	"rcoal/internal/obs"
)

// cellPhase is a grid cell's place in the lease state machine.
type cellPhase int

const (
	cellPending cellPhase = iota
	cellLeased
	cellDone
)

// cellState is one enumerated grid cell as the coordinator tracks it.
type cellState struct {
	index     int
	key       string
	phase     cellPhase
	raw       json.RawMessage
	worker    string
	seq       int64 // last issued lease number; bumps on re-issue/cancel
	deadline  time.Time
	grantedAt time.Time // current lease's grant time, for the fleet-trace span
	restored  bool
	cacheHit  bool
}

// expState is one experiment's registered grid plus its durable ledger.
type expState struct {
	id      string
	journal *checkpoint.Journal
	cache   *checkpoint.Journal // nil without a results cache
	wire    WireOptions
	cells   []*cellState
	byKey   map[string]*cellState
	pending int
	leased  int
	done    int
	// failure, when non-nil, aborts the experiment: the first cell
	// error reported by a worker, mirroring the local pool's
	// first-error-cancels contract.
	failure error
	// progress mirrors experiments.Options.Progress for the
	// registering driver; counts freshly computed completions only.
	progress   func(done, total int)
	freshDone  int
	freshTotal int
}

func (e *expState) complete() bool { return e.failure != nil || e.done == len(e.cells) }

// workerState is the coordinator's accounting for one worker identity.
type workerState struct {
	id        string
	active    int
	completed int
	firstSeen time.Time
	lastSeen  time.Time
}

// ServerConfig parameterizes a coordinator.
type ServerConfig struct {
	// LeaseTimeout bounds how long a granted lease may stay silent
	// before the cell is re-issued to another worker. 0 means the
	// default (2 minutes). The deadline is computed once at grant time
	// and carried in the grant (the one authoritative deadline); a
	// holder whose honest computation outlasts the budget renews via
	// /lease/renew instead of having its cell wastefully recomputed
	// elsewhere. Un-renewed expiry stays harmless either way, since
	// completions are first-writer-wins over identical bytes.
	LeaseTimeout time.Duration
	// PollWait is the retry hint returned when no cell is pending.
	// 0 means the default (250ms).
	PollWait time.Duration
	// LivenessWindow is how recently a worker must have been seen
	// (poll, renewal, or completion) to count as live in /status and
	// the autoscaling-hint aggregate. 0 means the default (15s).
	LivenessWindow time.Duration
	// TraceID is the sweep's trace id, minted by the coordinator
	// front end (obs.NewTraceID). When non-empty it is stamped on
	// every HTTP response (obs.TraceHeader), carried in every lease
	// grant, and workers collect per-cell spans for it.
	TraceID string
	// Trace, when non-nil, accumulates the fleet-wide merged trace:
	// coordinator lease spans and lifecycle marks plus the per-cell
	// span reports workers attach to completions.
	Trace *obs.FleetTrace
	// Log receives structured lease-lifecycle events (grants,
	// completions, renewals, expiries, cancellations, failures). nil
	// disables logging — the nil-receiver contract of obs.Logger makes
	// every call site unconditional.
	Log *obs.Logger
	// StragglerRatio flags a live worker whose per-worker rate falls
	// below this fraction of the live-fleet median. 0 means the
	// default (0.5).
	StragglerRatio float64
	// StragglerMinCells is how many completions a worker needs before
	// its rate joins the straggler baseline. 0 means the default (3).
	StragglerMinCells int
	// Clock overrides time.Now (tests).
	Clock func() time.Time
}

// Server is the coordinator: the lease state machine over every
// registered experiment grid, exposed as an http.Handler. All state is
// guarded by one mutex; completions broadcast on cond to wake the
// Exec goroutines blocked in ExecCells.
type Server struct {
	cfg  ServerConfig
	mu   sync.Mutex
	cond *sync.Cond
	reg  *metrics.Registry

	exps    []*expState
	byID    map[string]*expState
	workers map[string]*workerState

	firstLease time.Time
	drained    bool
	closed     bool
}

// NewServer returns an empty coordinator.
func NewServer(cfg ServerConfig) *Server {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = 250 * time.Millisecond
	}
	if cfg.LivenessWindow <= 0 {
		cfg.LivenessWindow = 15 * time.Second
	}
	if cfg.StragglerRatio <= 0 {
		cfg.StragglerRatio = 0.5
	}
	if cfg.StragglerMinCells <= 0 {
		cfg.StragglerMinCells = 3
	}
	// The coordinator owns pid 0 of the merged trace regardless of
	// which worker reports first.
	cfg.Trace.RegisterProcess(coordinatorProc)
	s := &Server{
		cfg:     cfg,
		reg:     metrics.NewRegistry(),
		byID:    make(map[string]*expState),
		workers: make(map[string]*workerState),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// coordinatorProc is the coordinator's process name in the merged
// fleet trace; workers appear as workerProc(id).
const coordinatorProc = "coordinator"

func workerProc(id string) string { return "worker " + id }

func (s *Server) now() time.Time {
	if s.cfg.Clock != nil {
		return s.cfg.Clock()
	}
	return time.Now()
}

// counter names surfaced via Status.Metrics (GET /status) and the
// Prometheus /metrics exposition.
const (
	cntCacheHits      = "dist_cache_hits"
	cntCacheMisses    = "dist_cache_misses"
	cntRestored       = "dist_cells_restored"
	cntLeasesIssued   = "dist_leases_issued"
	cntLeasesExpired  = "dist_leases_expired"
	cntLeasesRenewed  = "dist_leases_renewed"
	cntLeasesCanceled = "dist_leases_canceled"
	cntCompletions    = "dist_completions"
	cntDuplicates     = "dist_completions_duplicate"
	cntStale          = "dist_completions_stale"
)

// Drain marks the coordinator finished: every driver has returned, so
// workers polling for leases are told Done and exit.
func (s *Server) Drain() {
	s.mu.Lock()
	s.drained = true
	s.mu.Unlock()
}

// Close aborts the coordinator: every blocked Exec returns an error.
// Used on shutdown paths and by the kill-and-resume tests ("kill" the
// coordinator without finishing the grid).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// register installs a grid batch for experiment id, restoring cells
// from the ledger journal and the results cache. Caller is exec.go.
func (s *Server) register(e *Exec, keys []string) (*expState, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("dist: coordinator closed")
	}
	if _, dup := s.byID[e.id]; dup {
		return nil, fmt.Errorf("dist: experiment %q registered twice", e.id)
	}
	st := &expState{
		id:      e.id,
		journal: e.journal,
		cache:   e.cache,
		wire:    e.wire,
		byKey:   make(map[string]*cellState, len(keys)),
	}
	// Leases journaled by a previous coordinator incarnation seed the
	// per-cell sequence numbers, so completions of pre-crash leases
	// are recognized rather than misread as issues of this run.
	prior := map[string]checkpoint.Lease{}
	if e.journal != nil {
		prior = e.journal.Leases()
	}
	restored, cacheHits := 0, 0
	for i, key := range keys {
		c := &cellState{index: i, key: key}
		if pl, ok := prior[key]; ok {
			c.seq = pl.Seq
		}
		if e.journal != nil {
			if raw, ok := e.journal.Lookup(key); ok {
				c.phase, c.raw, c.restored = cellDone, raw, true
				restored++
			}
		}
		if c.phase != cellDone && e.cache != nil {
			if raw, ok := e.cache.Lookup(key); ok {
				c.phase, c.raw, c.cacheHit = cellDone, raw, true
				cacheHits++
				if e.journal != nil {
					if err := e.journal.Record(key, raw); err != nil {
						return nil, err
					}
				}
			} else {
				s.reg.Counter(cntCacheMisses).Inc()
			}
		}
		if c.phase == cellDone {
			st.done++
		} else {
			st.pending++
		}
		st.cells = append(st.cells, c)
		st.byKey[key] = c
	}
	st.freshTotal = st.pending
	s.reg.Counter(cntRestored).Add(uint64(restored))
	s.reg.Counter(cntCacheHits).Add(uint64(cacheHits))
	s.exps = append(s.exps, st)
	s.byID[st.id] = st
	return st, nil
}

// unregister removes a failed experiment's grid so a rebuilt Exec
// (e.g. a resumed coordinator sharing the process) can re-register.
func (s *Server) unregister(st *expState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.byID, st.id)
	for i, e := range s.exps {
		if e == st {
			s.exps = append(s.exps[:i], s.exps[i+1:]...)
			break
		}
	}
}

// reapExpired returns timed-out leases to the pending queue. Caller
// holds mu.
func (s *Server) reapExpired(now time.Time) {
	for _, e := range s.exps {
		for _, c := range e.cells {
			if c.phase == cellLeased && now.After(c.deadline) {
				c.phase = cellPending
				e.leased--
				e.pending++
				if w := s.workers[c.worker]; w != nil && w.active > 0 {
					w.active--
				}
				s.reg.Counter(cntLeasesExpired).Inc()
				s.cfg.Log.Warn("lease expired",
					"experiment", e.id, "cell", c.key, "seq", c.seq, "worker", c.worker)
				s.cfg.Trace.Mark(coordinatorProc, obs.Mark{
					Track: e.id, Name: "lease_expired", At: now.UnixNano(),
					Attrs: map[string]string{"cell": c.key, "worker": c.worker},
				})
			}
		}
	}
}

// grantLease finds the first pending cell in registration order,
// journals the hand-out, and returns the grant. Caller holds mu.
func (s *Server) grantLease(w *workerState, now time.Time) (*LeaseGrant, error) {
	for _, e := range s.exps {
		if e.pending == 0 || e.failure != nil {
			continue
		}
		for _, c := range e.cells {
			if c.phase != cellPending {
				continue
			}
			c.seq++
			lease := checkpoint.Lease{
				Key: c.key, Worker: w.id, Seq: c.seq, IssuedUnixNano: now.UnixNano(),
			}
			if e.journal != nil {
				// Durable before granted: a coordinator crash between
				// here and the HTTP reply at worst re-issues.
				if err := e.journal.RecordLease(lease); err != nil {
					c.seq--
					return nil, err
				}
			}
			c.phase = cellLeased
			c.worker = w.id
			// The one authoritative deadline: set here, carried in the
			// grant, moved only by /lease/renew.
			c.deadline = now.Add(s.cfg.LeaseTimeout)
			c.grantedAt = now
			e.pending--
			e.leased++
			w.active++
			s.reg.Counter(cntLeasesIssued).Inc()
			if s.firstLease.IsZero() {
				s.firstLease = now
			}
			s.cfg.Log.Info("lease granted",
				"experiment", e.id, "cell", c.key, "seq", c.seq, "worker", w.id,
				"deadline_unix_nano", c.deadline.UnixNano())
			return &LeaseGrant{
				Experiment: e.id, Key: c.key, Seq: c.seq, Options: e.wire,
				LeaseTimeoutMS:   s.cfg.LeaseTimeout.Milliseconds(),
				DeadlineUnixNano: c.deadline.UnixNano(),
				TraceID:          s.cfg.TraceID,
			}, nil
		}
	}
	return nil, nil
}

func (s *Server) worker(id string, now time.Time) *workerState {
	w := s.workers[id]
	if w == nil {
		w = &workerState{id: id, firstSeen: now}
		s.workers[id] = w
	}
	w.lastSeen = now
	return w
}

// handleLease serves POST /lease.
func (s *Server) handleLease(rw http.ResponseWriter, req *http.Request) {
	var lr LeaseRequest
	if err := decodeJSON(rw, req, &lr); err != nil {
		return
	}
	if lr.Worker == "" {
		lr.Worker = "anonymous"
	}
	now := s.now()
	s.mu.Lock()
	s.reapExpired(now)
	w := s.worker(lr.Worker, now)
	grant, err := s.grantLease(w, now)
	drained := s.drained
	s.mu.Unlock()
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := LeaseResponse{}
	switch {
	case grant != nil:
		resp.Lease = grant
	case drained:
		resp.Done = true
	default:
		resp.WaitMS = s.cfg.PollWait.Milliseconds()
	}
	writeJSON(rw, resp)
}

// handleComplete serves POST /complete.
func (s *Server) handleComplete(rw http.ResponseWriter, req *http.Request) {
	var cr CompleteRequest
	if err := decodeJSON(rw, req, &cr); err != nil {
		return
	}
	if cr.Error == "" && !json.Valid(cr.Value) {
		writeJSON(rw, CompleteResponse{Accepted: false, Reason: "invalid result JSON"})
		return
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.worker(cr.Worker, now)
	e := s.byID[cr.Experiment]
	if e == nil {
		writeJSON(rw, CompleteResponse{Accepted: false, Reason: "unknown experiment"})
		return
	}
	c := e.byKey[cr.Key]
	if c == nil {
		writeJSON(rw, CompleteResponse{Accepted: false, Reason: "unknown cell"})
		return
	}
	if c.phase == cellDone {
		s.reg.Counter(cntDuplicates).Inc()
		s.cfg.Log.Info("completion rejected",
			"experiment", e.id, "cell", cr.Key, "seq", cr.Seq, "worker", cr.Worker,
			"reason", "duplicate")
		writeJSON(rw, CompleteResponse{Accepted: false, Reason: "duplicate: first writer won"})
		return
	}
	if cr.Seq != c.seq {
		// A canceled or re-issued lease's original holder reporting
		// late. The current holder (or the next one) owns the cell.
		s.reg.Counter(cntStale).Inc()
		s.cfg.Log.Info("completion rejected",
			"experiment", e.id, "cell", cr.Key, "seq", cr.Seq, "worker", cr.Worker,
			"reason", "stale lease")
		writeJSON(rw, CompleteResponse{Accepted: false, Reason: "stale lease"})
		return
	}
	if cr.Error != "" {
		// First cell error aborts the experiment, mirroring the local
		// pool's first-error-cancels contract.
		if e.failure == nil {
			e.failure = fmt.Errorf("dist: cell %q on worker %s: %s", cr.Key, cr.Worker, cr.Error)
		}
		s.cfg.Log.Error("cell failed on worker",
			"experiment", e.id, "cell", cr.Key, "seq", cr.Seq, "worker", cr.Worker,
			"error", cr.Error)
		if c.phase == cellLeased {
			c.phase = cellPending
			e.leased--
			e.pending++
		}
		if w.active > 0 {
			w.active--
		}
		s.cond.Broadcast()
		writeJSON(rw, CompleteResponse{Accepted: true})
		return
	}
	if e.journal != nil {
		if _, err := e.journal.RecordOnce(cr.Key, cr.Value); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if e.cache != nil {
		if _, err := e.cache.RecordOnce(cr.Key, cr.Value); err != nil {
			http.Error(rw, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	if c.phase == cellLeased {
		e.leased--
	} else {
		e.pending-- // expired lease whose holder still delivered
	}
	c.phase = cellDone
	c.raw = cr.Value
	e.done++
	e.freshDone++
	if w.active > 0 {
		w.active--
	}
	w.completed++
	s.reg.Counter(cntCompletions).Inc()
	s.cfg.Log.Info("completion accepted",
		"experiment", e.id, "cell", cr.Key, "seq", cr.Seq, "worker", cr.Worker,
		"done", e.done, "total", len(e.cells))
	if s.cfg.Trace != nil {
		// The coordinator's view of the cell: one lease-hold span from
		// grant to accepted completion on the experiment's track.
		start := c.grantedAt.UnixNano()
		if c.grantedAt.IsZero() {
			start = now.UnixNano() // pre-crash lease delivered after resume
		}
		s.cfg.Trace.Span(coordinatorProc, obs.Span{
			Track: e.id, Name: "lease " + cr.Key,
			Start: start, End: now.UnixNano(),
			Attrs: map[string]string{"worker": cr.Worker, "seq": fmt.Sprint(cr.Seq)},
		})
		// Merge the worker's own per-cell span report.
		if cr.Trace != nil {
			s.cfg.Trace.AddCell(workerProc(cr.Worker), *cr.Trace)
		}
	}
	if e.progress != nil {
		e.progress(e.freshDone, e.freshTotal)
	}
	s.cond.Broadcast()
	writeJSON(rw, CompleteResponse{Accepted: true})
}

// handleRenew serves POST /lease/renew: an alive holder extends its
// lease's deadline by a full LeaseTimeout, so honest computations
// that outlast the silence budget are not recomputed elsewhere.
// Idempotent: a duplicated renewal extends an already-extended
// deadline by the same amount from the later arrival.
func (s *Server) handleRenew(rw http.ResponseWriter, req *http.Request) {
	var rr RenewRequest
	if err := decodeJSON(rw, req, &rr); err != nil {
		return
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if rr.Worker != "" {
		s.worker(rr.Worker, now)
	}
	e := s.byID[rr.Experiment]
	if e == nil {
		writeJSON(rw, RenewResponse{Renewed: false, Reason: "unknown experiment"})
		return
	}
	c := e.byKey[rr.Key]
	if c == nil {
		writeJSON(rw, RenewResponse{Renewed: false, Reason: "unknown cell"})
		return
	}
	if c.phase == cellDone {
		writeJSON(rw, RenewResponse{Renewed: false, Reason: "already complete"})
		return
	}
	if c.phase != cellLeased || rr.Seq != c.seq {
		writeJSON(rw, RenewResponse{Renewed: false, Reason: "stale lease"})
		return
	}
	c.deadline = now.Add(s.cfg.LeaseTimeout)
	s.reg.Counter(cntLeasesRenewed).Inc()
	s.cfg.Log.Info("lease renewed",
		"experiment", e.id, "cell", rr.Key, "seq", rr.Seq, "worker", rr.Worker,
		"deadline_unix_nano", c.deadline.UnixNano())
	s.cfg.Trace.Mark(coordinatorProc, obs.Mark{
		Track: e.id, Name: "lease_renewed", At: now.UnixNano(),
		Attrs: map[string]string{"cell": rr.Key, "worker": rr.Worker},
	})
	writeJSON(rw, RenewResponse{Renewed: true, DeadlineUnixNano: c.deadline.UnixNano()})
}

// handleCancel serves POST /leases/cancel.
func (s *Server) handleCancel(rw http.ResponseWriter, req *http.Request) {
	var cr CancelRequest
	if err := decodeJSON(rw, req, &cr); err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.byID[cr.Experiment]
	if e == nil {
		writeJSON(rw, CancelResponse{Canceled: false, Reason: "unknown experiment"})
		return
	}
	c := e.byKey[cr.Key]
	if c == nil {
		writeJSON(rw, CancelResponse{Canceled: false, Reason: "unknown cell"})
		return
	}
	if c.phase != cellLeased {
		writeJSON(rw, CancelResponse{Canceled: false, Reason: "not leased"})
		return
	}
	// Bump seq so the revoked holder's completion is stale; the cell
	// re-issues on the next poll (the "retry" half of cancel/retry).
	c.seq++
	c.phase = cellPending
	e.leased--
	e.pending++
	if w := s.workers[c.worker]; w != nil && w.active > 0 {
		w.active--
	}
	s.reg.Counter(cntLeasesCanceled).Inc()
	s.cfg.Log.Warn("lease canceled",
		"experiment", e.id, "cell", cr.Key, "worker", c.worker)
	s.cfg.Trace.Mark(coordinatorProc, obs.Mark{
		Track: e.id, Name: "lease_canceled", At: s.now().UnixNano(),
		Attrs: map[string]string{"cell": cr.Key, "worker": c.worker},
	})
	writeJSON(rw, CancelResponse{Canceled: true})
}

// Status summarizes the coordinator's live state.
func (s *Server) Status() Status {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{Done: s.drained, Metrics: s.reg.Snapshot()}
	totalPending, totalLeased, fresh := 0, 0, 0
	for _, e := range s.exps {
		es := ExperimentStatus{
			ID: e.id, Total: len(e.cells), Done: e.done,
			Pending: e.pending, Leased: e.leased,
		}
		for _, c := range e.cells {
			if c.restored {
				es.Restored++
			}
			if c.cacheHit {
				es.CacheHit++
			}
		}
		fresh += e.freshDone
		totalPending += e.pending
		totalLeased += e.leased
		st.Experiments = append(st.Experiments, es)
	}
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	liveRate := 0.0
	var baselineRates []float64
	for _, id := range ids {
		w := s.workers[id]
		ws := WorkerStatus{
			ID: w.id, Active: w.active, Completed: w.completed,
			LastSeenUnixNano: w.lastSeen.UnixNano(),
			Live:             now.Sub(w.lastSeen) <= s.cfg.LivenessWindow,
		}
		if d := now.Sub(w.firstSeen).Seconds(); d > 0 {
			ws.CellsPerSec = float64(w.completed) / d
		}
		if ws.Live {
			st.LiveWorkers++
			liveRate += ws.CellsPerSec
			if w.completed >= s.cfg.StragglerMinCells {
				baselineRates = append(baselineRates, ws.CellsPerSec)
			}
		}
		st.Workers = append(st.Workers, ws)
	}
	// Straggler detection: compare each live worker's throughput to the
	// median of live workers that have completed enough cells to have a
	// meaningful rate. Workers inside the grace window (younger than the
	// liveness window) are never flagged — their rate is still warming up.
	if len(baselineRates) > 0 {
		sort.Float64s(baselineRates)
		mid := len(baselineRates) / 2
		median := baselineRates[mid]
		if len(baselineRates)%2 == 0 {
			median = (baselineRates[mid-1] + baselineRates[mid]) / 2
		}
		st.MedianCellsPerSec = median
		if median > 0 {
			for i := range st.Workers {
				ws := &st.Workers[i]
				w := s.workers[ws.ID]
				ws.RateRatio = ws.CellsPerSec / median
				if ws.Live && now.Sub(w.firstSeen) >= s.cfg.LivenessWindow &&
					ws.CellsPerSec < s.cfg.StragglerRatio*median {
					ws.Straggler = true
				}
			}
		}
	}
	st.PendingCells = totalPending + totalLeased
	if liveRate > 0 {
		// The autoscaling hint: seconds of backlog at the live fleet's
		// aggregate rate. Persistently high => add workers; near zero
		// with many live workers => shrink.
		st.BacklogSeconds = float64(st.PendingCells) / liveRate
	}
	if !s.firstLease.IsZero() {
		if d := now.Sub(s.firstLease).Seconds(); d > 0 && fresh > 0 {
			st.CellsPerSec = float64(fresh) / d
			st.ETASeconds = float64(totalPending+totalLeased) / st.CellsPerSec
		}
	}
	return st
}

// FinalizeTrace labels straggler worker processes in the fleet trace
// so the badge shows up next to the process name in the viewer. Call
// once, after the sweep drains and before exporting the trace. No-op
// when tracing is disabled.
func (s *Server) FinalizeTrace() {
	if s.cfg.Trace == nil {
		return
	}
	st := s.Status()
	for _, ws := range st.Workers {
		if ws.Straggler {
			s.cfg.Trace.SetLabel(workerProc(ws.ID), "straggler")
		}
	}
}

// handleMetrics renders the coordinator's state as Prometheus text
// exposition (version 0.0.4): sweep-level gauges, per-experiment and
// per-worker series, then the full metrics.Registry snapshot.
func (s *Server) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	st := s.Status()
	p := obs.NewProm()
	done := 0
	if st.Done {
		done = 1
	}
	p.Gauge("rcoal_coordinator_done", "Whether the sweep has drained (1) or is still running (0).", float64(done))
	p.Gauge("rcoal_coordinator_pending_cells", "Cells not yet completed (pending plus leased).", float64(st.PendingCells))
	p.Gauge("rcoal_coordinator_live_workers", "Workers seen within the liveness window.", float64(st.LiveWorkers))
	p.Gauge("rcoal_coordinator_cells_per_second", "Fleet-wide fresh completion rate.", st.CellsPerSec)
	p.Gauge("rcoal_coordinator_eta_seconds", "Estimated seconds until the sweep drains.", st.ETASeconds)
	p.Gauge("rcoal_coordinator_backlog_seconds", "Seconds of backlog at the live fleet's aggregate rate.", st.BacklogSeconds)
	p.Gauge("rcoal_coordinator_median_cells_per_second", "Median per-worker completion rate used as the straggler baseline.", st.MedianCellsPerSec)
	expSeries := func(name, help string, pick func(ExperimentStatus) float64) {
		p.GaugeSeries(name, help, func(sample func(v float64, labels ...obs.Label)) {
			for _, es := range st.Experiments {
				sample(pick(es), obs.Label{Name: "experiment", Value: es.ID})
			}
		})
	}
	expSeries("rcoal_experiment_cells_total", "Total cells in the experiment grid.", func(es ExperimentStatus) float64 { return float64(es.Total) })
	expSeries("rcoal_experiment_cells_done", "Completed cells, restored and cache hits included.", func(es ExperimentStatus) float64 { return float64(es.Done) })
	expSeries("rcoal_experiment_cells_restored", "Cells restored from the journal at startup.", func(es ExperimentStatus) float64 { return float64(es.Restored) })
	expSeries("rcoal_experiment_cache_hits", "Cells answered from the results cache.", func(es ExperimentStatus) float64 { return float64(es.CacheHit) })
	workerSeries := func(name, help string, pick func(WorkerStatus) float64) {
		p.GaugeSeries(name, help, func(sample func(v float64, labels ...obs.Label)) {
			for _, ws := range st.Workers {
				sample(pick(ws), obs.Label{Name: "worker", Value: ws.ID})
			}
		})
	}
	workerSeries("rcoal_worker_completed_cells", "Cells completed by the worker.", func(ws WorkerStatus) float64 { return float64(ws.Completed) })
	workerSeries("rcoal_worker_cells_per_second", "Per-worker completion rate.", func(ws WorkerStatus) float64 { return ws.CellsPerSec })
	workerSeries("rcoal_worker_rate_ratio", "Worker rate relative to the live-median baseline.", func(ws WorkerStatus) float64 { return ws.RateRatio })
	workerSeries("rcoal_worker_straggler", "Whether the worker is flagged as a straggler (1) or not (0).", func(ws WorkerStatus) float64 {
		if ws.Straggler {
			return 1
		}
		return 0
	})
	workerSeries("rcoal_worker_live", "Whether the worker was seen within the liveness window.", func(ws WorkerStatus) float64 {
		if ws.Live {
			return 1
		}
		return 0
	})
	p.Snapshot("rcoal", st.Metrics)
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p.WriteTo(rw)
}

// Handler returns the coordinator's HTTP interface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", methodHandler(http.MethodPost, s.handleLease))
	mux.HandleFunc("/lease/renew", methodHandler(http.MethodPost, s.handleRenew))
	mux.HandleFunc("/complete", methodHandler(http.MethodPost, s.handleComplete))
	mux.HandleFunc("/leases/cancel", methodHandler(http.MethodPost, s.handleCancel))
	mux.HandleFunc("/status", methodHandler(http.MethodGet, func(rw http.ResponseWriter, _ *http.Request) {
		writeJSON(rw, s.Status())
	}))
	mux.HandleFunc("/metrics", methodHandler(http.MethodGet, s.handleMetrics))
	if s.cfg.TraceID == "" {
		return mux
	}
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		rw.Header().Set(obs.TraceHeader, s.cfg.TraceID)
		mux.ServeHTTP(rw, req)
	})
}

// Heartbeat starts a goroutine writing one status line to w every
// interval until the returned stop function is called; stop writes the
// final end-of-run line before returning, so callers can defer it.
func (s *Server) Heartbeat(w io.Writer, every time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	line := func() {
		fmt.Fprintf(w, "dist: %s\n", s.heartbeatLine())
	}
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				line()
			case <-done:
				line()
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// heartbeatLine renders the one-line live summary, cache counters
// included.
func (s *Server) heartbeatLine() string {
	st := s.Status()
	total, done, restored := 0, 0, 0
	for _, e := range st.Experiments {
		total += e.Total
		done += e.Done
		restored += e.Restored
	}
	line := fmt.Sprintf("cells %d/%d", done, total)
	if restored > 0 {
		line += fmt.Sprintf(" (%d restored)", restored)
	}
	hits := st.Metrics.Counters[cntCacheHits]
	misses := st.Metrics.Counters[cntCacheMisses]
	if hits+misses > 0 {
		line += fmt.Sprintf(", cache %d hit/%d miss", hits, misses)
	}
	active := 0
	for _, w := range st.Workers {
		active += w.Active
	}
	line += fmt.Sprintf(", workers %d (%d busy)", len(st.Workers), active)
	if st.CellsPerSec > 0 {
		line += fmt.Sprintf(", %.1f cells/s", st.CellsPerSec)
	}
	if st.ETASeconds > 0 {
		line += fmt.Sprintf(", eta %s", (time.Duration(st.ETASeconds * float64(time.Second))).Round(time.Second))
	}
	return line
}

func methodHandler(method string, fn http.HandlerFunc) http.HandlerFunc {
	return func(rw http.ResponseWriter, req *http.Request) {
		if req.Method != method {
			http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		fn(rw, req)
	}
}

func decodeJSON(rw http.ResponseWriter, req *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(req.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		http.Error(rw, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return err
	}
	return nil
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(v)
}
