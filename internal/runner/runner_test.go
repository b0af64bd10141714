package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestMapPreservesInputOrder makes completion order deliberately
// adversarial (early items finish last) and asserts results still land
// by input index.
func TestMapPreservesInputOrder(t *testing.T) {
	items := make([]int, 16)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), 8, items, func(_ context.Context, i int, item int) (string, error) {
		time.Sleep(time.Duration(len(items)-i) * time.Millisecond)
		return fmt.Sprintf("cell-%d", item), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if want := fmt.Sprintf("cell-%d", i); s != want {
			t.Errorf("out[%d] = %q, want %q", i, s, want)
		}
	}
}

func TestMapEmptyInput(t *testing.T) {
	out, err := Map(context.Background(), 4, nil, func(_ context.Context, i int, item int) (int, error) {
		t.Error("fn called on empty input")
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("got %d results", len(out))
	}
	if err := (Pool{}).MapN(context.Background(), 0, nil); err != nil {
		t.Errorf("MapN(0) = %v", err)
	}
}

// TestSingleWorkerIsSerial proves Workers=1 executes cells strictly in
// index order with no interleaving — the determinism baseline.
func TestSingleWorkerIsSerial(t *testing.T) {
	var order []int
	err := Pool{Workers: 1}.MapN(context.Background(), 20, func(_ context.Context, i int) error {
		order = append(order, i) // no lock: single worker must serialize
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 20 {
		t.Fatalf("ran %d cells", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("execution order %v not sequential", order)
		}
	}
}

// TestFirstErrorPropagation: the error of the lowest-indexed failing
// cell wins, later cells are canceled, and with one worker no cell
// after the failure runs at all.
func TestFirstErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := Pool{Workers: 1}.MapN(context.Background(), 100, func(_ context.Context, i int) error {
		ran.Add(1)
		if i == 3 {
			return fmt.Errorf("cell %d: %w", i, boom)
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if err.Error() != "cell 3: boom" {
		t.Errorf("err = %q, want the index-3 error", err)
	}
	if got := ran.Load(); got != 4 {
		t.Errorf("%d cells ran after failure at index 3 (single worker)", got)
	}

	// Parallel: two failures; the lower index must be reported even
	// when the higher-indexed error lands first.
	started2 := make(chan struct{})
	err = Pool{Workers: 8}.MapN(context.Background(), 8, func(_ context.Context, i int) error {
		switch i {
		case 2:
			close(started2)
			time.Sleep(10 * time.Millisecond)
			return fmt.Errorf("cell %d: %w", i, boom)
		case 6:
			<-started2
			return fmt.Errorf("cell %d: %w", i, boom)
		}
		return nil
	})
	if err == nil || err.Error() != "cell 2: boom" {
		t.Errorf("parallel err = %v, want the index-2 error", err)
	}

	// Map discards partial results on error.
	out, err := Map(context.Background(), 2, []int{1, 2, 3}, func(_ context.Context, i int, item int) (int, error) {
		if i == 0 {
			return 0, boom
		}
		return item, nil
	})
	if err == nil || out != nil {
		t.Errorf("Map after error: out=%v err=%v", out, err)
	}
}

// TestCancellationMidSweep cancels a long sweep and asserts the pool
// returns context.Canceled promptly without leaking goroutines.
func TestCancellationMidSweep(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	var ran atomic.Int64
	errc := make(chan error, 1)
	go func() {
		errc <- Pool{Workers: 4}.MapN(ctx, 10_000, func(ctx context.Context, i int) error {
			ran.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			select { // simulate a long cell that honors cancellation
			case <-ctx.Done():
			case <-time.After(5 * time.Millisecond):
			}
			return nil
		})
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not return after cancellation")
	}
	if got := ran.Load(); got >= 10_000 {
		t.Errorf("cancellation did not stop the sweep (%d cells ran)", got)
	}

	// All workers must be gone; allow the runtime a moment to reap.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

func TestProgressCallback(t *testing.T) {
	var calls []int
	total := 0
	p := Pool{Workers: 3, OnProgress: func(done, n int) {
		calls = append(calls, done) // serialized by contract
		total = n
	}}
	if err := p.MapN(context.Background(), 7, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if total != 7 || len(calls) != 7 {
		t.Fatalf("progress calls %v (total %d)", calls, total)
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("progress counts %v not monotonic", calls)
		}
	}
}

func TestCellSeedDeterminismAndDistinctness(t *testing.T) {
	const master = 0x8C0A1
	tuples := [][]any{
		{"sweep", 0, 1},
		{"sweep", 0, 2},
		{"sweep", 1, 1},
		{"sweep", 1, 2},
		{"fig18", 0, 1},
		{"sweep"},
		{"swee", "p"},      // concatenation must not alias the tuple above
		{"sweep", 0, 1, 0}, // longer tuple, shared prefix
		{int64(7)},
		{uint64(7)}, // same value, different type tag
		{uint32(7)},
		{"7"},
	}
	seen := map[uint64][]any{}
	for _, tu := range tuples {
		s := CellSeed(master, tu...)
		if s2 := CellSeed(master, tu...); s2 != s {
			t.Errorf("CellSeed(%v) unstable: %x vs %x", tu, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("CellSeed collision between %v and %v", prev, tu)
		}
		seen[s] = tu
	}
	if a, b := CellSeed(1, "x"), CellSeed(2, "x"); a == b {
		t.Error("different masters produced the same stream")
	}
}

// TestPanicRecoveredAsError: a panicking cell must surface as a
// *PanicError carrying its index and stack, cancel in-flight siblings,
// and leak no goroutines — not crash the process.
func TestPanicRecoveredAsError(t *testing.T) {
	before := runtime.NumGoroutine()

	siblingCanceled := make(chan bool, 1)
	err := Pool{Workers: 2}.MapN(context.Background(), 8, func(ctx context.Context, i int) error {
		switch i {
		case 0: // long-running sibling: must be canceled, not abandoned
			select {
			case <-ctx.Done():
				siblingCanceled <- true
			case <-time.After(5 * time.Second):
				siblingCanceled <- false
			}
			return ctx.Err()
		case 1:
			time.Sleep(5 * time.Millisecond) // let the sibling start
			panic("cell 1 exploded")
		}
		return nil
	})

	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Cell != 1 || pe.Value != "cell 1 exploded" {
		t.Errorf("PanicError = cell %d value %v", pe.Cell, pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "runner_test.go") {
		t.Errorf("panic stack does not point at the cell:\n%s", pe.Stack)
	}
	if !<-siblingCanceled {
		t.Error("in-flight sibling was not canceled")
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked after panic: %d before, %d after", before, after)
	}
}

// TestLowestPanickingIndexWins mirrors the ordinary-error contract:
// with two panics in flight, the lower cell index is reported even
// when the higher one lands first.
func TestLowestPanickingIndexWins(t *testing.T) {
	started2 := make(chan struct{})
	err := Pool{Workers: 8}.MapN(context.Background(), 8, func(_ context.Context, i int) error {
		switch i {
		case 2:
			close(started2)
			time.Sleep(10 * time.Millisecond)
			panic("low")
		case 6:
			<-started2
			panic("high")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Cell != 2 || pe.Value != "low" {
		t.Errorf("reported cell %d (%v), want cell 2", pe.Cell, pe.Value)
	}
}

// TestPanicAndErrorRace: a panic is an error like any other — when an
// ordinary error holds the lower index, it wins over the panic.
func TestPanicAndErrorRace(t *testing.T) {
	boom := errors.New("boom")
	started1 := make(chan struct{})
	err := Pool{Workers: 4}.MapN(context.Background(), 4, func(_ context.Context, i int) error {
		switch i {
		case 1:
			close(started1)
			time.Sleep(10 * time.Millisecond)
			return boom
		case 3:
			<-started1
			panic("later cell")
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the lower-indexed plain error", err)
	}
}

func TestCellTimeout(t *testing.T) {
	var hit atomic.Int64
	err := Pool{Workers: 2, CellTimeout: 20 * time.Millisecond}.MapN(
		context.Background(), 4, func(ctx context.Context, i int) error {
			if i == 1 { // one cell wedges (but honors its context)
				<-ctx.Done()
				return ctx.Err()
			}
			hit.Add(1)
			return nil
		})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want *TimeoutError", err)
	}
	if te.Cell != 1 || te.Timeout != 20*time.Millisecond {
		t.Errorf("TimeoutError = %+v", te)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("timeout does not unwrap to context.DeadlineExceeded")
	}

	// Fast cells must be untouched by the budget.
	if err := (Pool{Workers: 2, CellTimeout: time.Second}).MapN(
		context.Background(), 8, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatalf("fast cells under timeout: %v", err)
	}
}

// TestCallerCancelIsNotATimeout: cancellation of the parent context
// surfaces as ctx.Err(), never dressed up as a per-cell timeout.
func TestCallerCancelIsNotATimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() { <-started; cancel() }()
	var once sync.Once
	err := Pool{Workers: 2, CellTimeout: time.Minute}.MapN(ctx, 100, func(ctx context.Context, i int) error {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return ctx.Err()
	})
	var te *TimeoutError
	if errors.As(err, &te) {
		t.Fatalf("caller cancel misreported as cell timeout: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
