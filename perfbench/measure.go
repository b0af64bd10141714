package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of ds by nearest rank.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// firstDiff describes the first line where two outputs differ.
func firstDiff(want, got string) string {
	wl, gl := bytes.Split([]byte(want), []byte{'\n'}), bytes.Split([]byte(got), []byte{'\n'})
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var a, b []byte
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("  line %d: want %q\n  line %d: got  %q", i+1, a, i+1, b)
		}
	}
	return "  (identical)"
}

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcWatch records the live heap at the end of every GC cycle while it
// is armed: a finalizer on a sentinel runs after each cycle that
// collects it and re-arms itself, so the watch costs nothing between
// collections.
type gcWatch struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

type gcSentinel struct{ w *gcWatch }

func watchGC() *gcWatch {
	w := &gcWatch{}
	w.arm()
	return w
}

func (w *gcWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{w: w}, func(s *gcSentinel) {
		w := s.w
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.stopped {
			return
		}
		w.peak = max(w.peak, readUint64("/gc/heap/live:bytes"))
		w.arm()
	})
}

// stop disarms the watch and returns the largest live heap seen, or
// the current one when no cycle ended while armed.
func (w *gcWatch) stop() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	if w.peak == 0 {
		return readUint64("/gc/heap/live:bytes")
	}
	return w.peak
}
