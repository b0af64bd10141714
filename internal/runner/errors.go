package runner

import (
	"fmt"
	"time"
)

// PanicError is a recovered cell panic. The pool converts panics into
// errors so one bad cell cancels its siblings and surfaces like any
// other failure (lowest index first) instead of killing the process —
// a multi-hour sweep then reports the cell and stack and can be
// resumed from its journal.
type PanicError struct {
	// Cell is the panicking cell's index.
	Cell int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: cell %d panicked: %v\n%s", e.Cell, e.Value, e.Stack)
}

// TimeoutError reports a cell that exceeded the pool's CellTimeout.
// It unwraps to the cell's own error (typically context.DeadlineExceeded
// surfaced by whatever the cell was blocked on).
type TimeoutError struct {
	// Cell is the timed-out cell's index.
	Cell int
	// Timeout is the configured per-cell budget.
	Timeout time.Duration
	// Err is the error the cell returned when its context expired.
	Err error
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("runner: cell %d exceeded its %v timeout: %v", e.Cell, e.Timeout, e.Err)
}

func (e *TimeoutError) Unwrap() error { return e.Err }
