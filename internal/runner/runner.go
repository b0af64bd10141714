// Package runner is the work-scheduling layer shared by the
// experiment drivers: it fans independent evaluation cells (one
// (mechanism, num-subwarp) point, one scatter panel, one workload
// pattern...) out over a bounded worker pool while preserving the
// deterministic, serial-equivalent semantics the reproduction depends
// on.
//
// The contract every helper here upholds:
//
//   - results land in input order, regardless of completion order;
//   - the worker count changes wall-clock time only, never output
//     bytes — each cell must derive all of its randomness from an
//     explicit per-cell seed (see CellSeed) and own all of its mutable
//     state (its gpusim server, its attack.Attacker);
//   - the first error (lowest cell index among failures) cancels the
//     remaining cells and is returned;
//   - a panicking cell is recovered into a *PanicError and propagated
//     exactly like an ordinary failure — no crashed process, no leaked
//     goroutines;
//   - cancellation of the caller's context stops the pool promptly and
//     surfaces ctx.Err() without leaking goroutines.
package runner

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a worker-count request: n > 0 is honored as given;
// anything else (the zero value) means GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is a bounded fan-out executor. The zero value is ready to use
// and runs GOMAXPROCS cells at a time.
type Pool struct {
	// Workers bounds concurrent cells; <= 0 means GOMAXPROCS. 1 gives
	// fully serial execution (useful for determinism baselines).
	Workers int
	// OnProgress, when non-nil, is called after each completed cell
	// with the completion count so far and the total. Calls are
	// serialized, so the callback needs no locking of its own.
	OnProgress func(done, total int)
	// CellTimeout, when positive, bounds each cell's run: the cell's
	// context is canceled at the deadline, and an error the cell then
	// returns is wrapped in a *TimeoutError. Cells must honor their
	// context for the bound to bite — the pool never abandons a running
	// goroutine (that would leak it).
	CellTimeout time.Duration
	// Telemetry, when non-nil, receives live per-cell runtime stats
	// (timings, failures, worker occupancy). One Telemetry may be
	// shared across pools; see its docs.
	Telemetry *Telemetry
}

// MapN runs fn(ctx, i) for every i in [0, n) on at most p.Workers
// goroutines. It blocks until every started cell has returned; no
// goroutine outlives the call. If a cell fails, the remaining cells
// are canceled and the error of the lowest-indexed failing cell is
// returned. If ctx is canceled first, MapN returns ctx.Err().
func (p Pool) MapN(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if p.Telemetry != nil {
		p.Telemetry.addTotal(n)
	}
	workers := Workers(p.Workers)
	if workers > n {
		workers = n
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		done     int
		firstIdx = -1
		firstErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || cctx.Err() != nil {
					return
				}
				if err := p.runCell(cctx, i, fn); err != nil {
					if errors.Is(err, context.Canceled) && cctx.Err() != nil {
						// Cancellation cascade: the pool is already
						// shutting down (a sibling failed, or the caller
						// canceled). A cell surfacing that cancellation
						// is not a root failure — recording it would let
						// a low-indexed canceled cell mask the culprit.
						return
					}
					mu.Lock()
					if firstIdx == -1 || i < firstIdx {
						firstIdx, firstErr = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
				mu.Lock()
				done++
				if p.OnProgress != nil {
					p.OnProgress(done, n)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}

// runCell executes one cell inside the robustness envelope (panic
// recovery and the per-cell timeout) and reports it to telemetry.
func (p Pool) runCell(ctx context.Context, i int, fn func(ctx context.Context, i int) error) error {
	var start time.Time
	if p.Telemetry != nil {
		start = p.Telemetry.cellStart()
	}
	err := p.attemptCell(ctx, i, fn)
	if p.Telemetry != nil {
		p.Telemetry.cellEnd(start, err)
	}
	return err
}

func (p Pool) attemptCell(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	cellCtx := ctx
	if p.CellTimeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, p.CellTimeout)
		defer cancel()
	}
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Cell: i, Value: v, Stack: debug.Stack()}
		}
	}()
	err = fn(cellCtx, i)
	if err != nil && cellCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		err = &TimeoutError{Cell: i, Timeout: p.CellTimeout, Err: err}
	}
	return err
}

// Map fans fn out over items on at most workers goroutines (<= 0
// means GOMAXPROCS) and returns the results in input order. Error and
// cancellation semantics are those of Pool.MapN.
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	return MapWith(ctx, Pool{Workers: workers}, items, fn)
}

// MapWith is Map running on an explicit Pool, for callers that also
// want progress reporting. (A free function because Go methods cannot
// be generic.)
func MapWith[T, R any](ctx context.Context, p Pool, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	err := p.MapN(ctx, len(items), func(ctx context.Context, i int) error {
		r, err := fn(ctx, i, items[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
