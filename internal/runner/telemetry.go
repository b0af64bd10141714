package runner

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"
)

// Telemetry aggregates live runtime statistics from one or more Pools:
// cell timings, failures, throughput, and worker occupancy.
// Unlike the simulator's metrics registry (single-goroutine by
// design), Telemetry is concurrency-safe — many worker goroutines and
// a heartbeat reader share one instance. Attach it via Pool.Telemetry;
// the same instance may serve several pools (e.g. "-run all" driving
// one experiment per pool), in which case totals accumulate across
// them.
type Telemetry struct {
	mu         sync.Mutex
	start      time.Time
	total      int
	done       int
	failed     int
	restored   int
	cacheHits  int
	cacheMiss  int
	active     int
	peakActive int
	busy       time.Duration
	sumCell    time.Duration
	minCell    time.Duration
	maxCell    time.Duration
	now        func() time.Time // test hook
}

// NewTelemetry returns an empty aggregator.
func NewTelemetry() *Telemetry { return &Telemetry{} }

func (t *Telemetry) clock() time.Time {
	if t.now != nil {
		return t.now()
	}
	return time.Now()
}

// ensureStarted stamps the observation window's start; callers hold mu.
func (t *Telemetry) ensureStarted(now time.Time) {
	if t.start.IsZero() {
		t.start = now
	}
}

// addTotal records that n more cells have been scheduled.
func (t *Telemetry) addTotal(n int) {
	now := t.clock()
	t.mu.Lock()
	t.ensureStarted(now)
	t.total += n
	t.mu.Unlock()
}

// cellStart records a worker picking up a cell and returns the start
// time to hand back to cellEnd.
func (t *Telemetry) cellStart() time.Time {
	now := t.clock()
	t.mu.Lock()
	t.ensureStarted(now)
	t.active++
	if t.active > t.peakActive {
		t.peakActive = t.active
	}
	t.mu.Unlock()
	return now
}

// cellEnd records a cell finishing.
func (t *Telemetry) cellEnd(start time.Time, err error) {
	d := t.clock().Sub(start)
	t.mu.Lock()
	t.active--
	t.busy += d
	t.sumCell += d
	if t.done+t.failed == 0 || d < t.minCell {
		t.minCell = d
	}
	if d > t.maxCell {
		t.maxCell = d
	}
	if err != nil {
		t.failed++
	} else {
		t.done++
	}
	t.mu.Unlock()
}

// AddRestored records n cells satisfied without computation — restored
// from a checkpoint journal or served by a results cache. Restored
// cells count toward the grid total and completion display but are
// excluded from the rate window: they complete in microseconds, and
// folding them into the throughput sample would inflate the rate and
// collapse the ETA of a resumed sweep (the remaining *fresh* cells
// still cost full simulation time each).
func (t *Telemetry) AddRestored(n int) {
	now := t.clock()
	t.mu.Lock()
	t.ensureStarted(now)
	t.restored += n
	t.mu.Unlock()
}

// AddCacheHit records one cell served by the fingerprint-keyed results
// cache. Hits are also restored cells — report them with AddRestored
// too; this counter only tracks the cache's contribution.
func (t *Telemetry) AddCacheHit() {
	t.mu.Lock()
	t.cacheHits++
	t.mu.Unlock()
}

// AddCacheMiss records one cell the results cache could not serve.
func (t *Telemetry) AddCacheMiss() {
	t.mu.Lock()
	t.cacheMiss++
	t.mu.Unlock()
}

// TelemetryStats is a point-in-time summary of a run's telemetry.
type TelemetryStats struct {
	TotalCells  int `json:"total_cells"`
	CellsDone   int `json:"cells_done"`
	CellsFailed int `json:"cells_failed"`
	// RestoredCells were satisfied without computation (journal resume
	// or results cache). They are included in TotalCells and CellsDone
	// but excluded from CellsPerSec and ETA — see AddRestored.
	RestoredCells int           `json:"restored_cells"`
	CacheHits     int           `json:"cache_hits"`
	CacheMisses   int           `json:"cache_misses"`
	ActiveWorkers int           `json:"active_workers"`
	PeakWorkers   int           `json:"peak_workers"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	AvgCell       time.Duration `json:"avg_cell_ns"`
	MinCell       time.Duration `json:"min_cell_ns"`
	MaxCell       time.Duration `json:"max_cell_ns"`
	CellsPerSec   float64       `json:"cells_per_sec"`
	ETA           time.Duration `json:"eta_ns"`
	Utilization   float64       `json:"utilization"`
}

// Stats summarizes the run so far. Throughput counts freshly computed
// cells (done + failed, restored excluded) over the window since the
// first event; ETA extrapolates that rate over the unfinished
// remainder; utilization is the fraction of worker-seconds spent
// inside cells, against the peak concurrency seen.
func (t *Telemetry) Stats() TelemetryStats {
	now := t.clock()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TelemetryStats{
		TotalCells:    t.total + t.restored,
		CellsDone:     t.done + t.restored,
		CellsFailed:   t.failed,
		RestoredCells: t.restored,
		CacheHits:     t.cacheHits,
		CacheMisses:   t.cacheMiss,
		ActiveWorkers: t.active,
		PeakWorkers:   t.peakActive,
		MinCell:       t.minCell,
		MaxCell:       t.maxCell,
	}
	if t.start.IsZero() {
		return s
	}
	if s.Elapsed = now.Sub(t.start); s.Elapsed < 0 {
		s.Elapsed = 0 // clock stepped backwards; keep the window sane
	}
	// The rate window covers freshly computed cells only: restored
	// cells arrive in microseconds and would otherwise inflate the
	// rate (and deflate the ETA) of every resumed or cache-warm sweep.
	// When that window is zero-width — every cell so far was a cache
	// hit or journal restore, so fresh == 0, or the clock has not
	// advanced — the rate is undefined: report 0 and no ETA rather
	// than NaN/Inf (which would poison the Prometheus exposition) or
	// a negative extrapolation.
	fresh := t.done + t.failed
	if fresh > 0 {
		s.AvgCell = t.sumCell / time.Duration(fresh)
	}
	if s.Elapsed > 0 {
		if fresh > 0 {
			s.CellsPerSec = float64(fresh) / s.Elapsed.Seconds()
		}
		if t.peakActive > 0 {
			s.Utilization = float64(t.busy) / (float64(s.Elapsed) * float64(t.peakActive))
			if s.Utilization > 1 {
				s.Utilization = 1 // rounding at tiny elapsed windows
			} else if s.Utilization < 0 {
				s.Utilization = 0
			}
		}
	}
	// remaining can go negative when restored cells were also counted
	// as scheduled (journal replay racing grid registration); clamp
	// instead of emitting a negative ETA.
	if remaining := t.total - fresh; remaining > 0 && s.CellsPerSec > 0 {
		if sec := float64(remaining) / s.CellsPerSec; sec < float64(math.MaxInt64)/float64(time.Second) {
			s.ETA = time.Duration(sec * float64(time.Second))
		} else {
			s.ETA = math.MaxInt64 // avoid Duration overflow wrapping negative
		}
	}
	return s
}

// String renders the heartbeat line.
func (s TelemetryStats) String() string {
	line := fmt.Sprintf("cells %d/%d", s.CellsDone+s.CellsFailed, s.TotalCells)
	if s.RestoredCells > 0 {
		line += fmt.Sprintf(" (%d restored)", s.RestoredCells)
	}
	if s.CellsFailed > 0 {
		line += fmt.Sprintf(" (%d failed)", s.CellsFailed)
	}
	if s.CacheHits+s.CacheMisses > 0 {
		line += fmt.Sprintf(", cache %d hit/%d miss", s.CacheHits, s.CacheMisses)
	}
	line += fmt.Sprintf(", %.1f cells/s", s.CellsPerSec)
	if s.ETA > 0 {
		line += fmt.Sprintf(", eta %s", s.ETA.Round(time.Second))
	}
	line += fmt.Sprintf(", workers %d/%d, util %d%%",
		s.ActiveWorkers, s.PeakWorkers, int(s.Utilization*100+0.5))
	return line
}

// Heartbeat starts a goroutine writing one Stats line to w every
// interval until the returned stop function is called. stop blocks
// until the final line (the end-of-run summary) has been written, so
// callers can defer it and still get a complete last line.
func (t *Telemetry) Heartbeat(w io.Writer, every time.Duration) (stop func()) {
	return t.HeartbeatWith(every, func(s TelemetryStats) {
		fmt.Fprintf(w, "telemetry: %s\n", s)
	})
}

// HeartbeatWith is Heartbeat with a caller-supplied sink: emit is
// called with a fresh Stats snapshot every interval and once more on
// stop (the end-of-run summary). It exists so callers can route the
// heartbeat into a structured logger or metrics exporter without this
// package depending on either.
func (t *Telemetry) HeartbeatWith(every time.Duration, emit func(TelemetryStats)) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				emit(t.Stats())
			case <-done:
				emit(t.Stats())
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
