// Package ringbuf provides a growable FIFO ring buffer used on the
// simulator's hot paths (the LD/ST inject queue, the crossbar port
// queues, and the DRAM controllers' in-flight queues). Unlike the
// `q = q[1:]` idiom, popping never abandons the front of the backing
// array, so a queue that is pushed and popped in steady state keeps a
// small, bounded capacity and performs zero allocations once warmed.
package ringbuf

// Ring is a FIFO queue over a circular buffer. The zero value is an
// empty ring ready for use.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // number of live elements
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the current capacity of the backing buffer.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Push appends v at the tail, growing the buffer if full.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	tail := r.head + r.n
	if tail >= len(r.buf) {
		tail -= len(r.buf)
	}
	r.buf[tail] = v
	r.n++
}

// Pop removes and returns the head element. It panics on an empty ring;
// callers gate on Len.
func (r *Ring[T]) Pop() T {
	if r.n == 0 {
		panic("ringbuf: pop from empty ring")
	}
	v := r.buf[r.head]
	var zero T
	r.buf[r.head] = zero // drop the reference for GC
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return v
}

// Peek returns the head element without removing it. It panics on an
// empty ring.
func (r *Ring[T]) Peek() T {
	if r.n == 0 {
		panic("ringbuf: peek into empty ring")
	}
	return r.buf[r.head]
}

// Reset empties the ring, zeroing dropped slots so stale references do
// not pin memory, while keeping the backing buffer for reuse.
func (r *Ring[T]) Reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		r.buf[j] = zero
	}
	r.head, r.n = 0, 0
}

// Snapshot appends the ring's elements to dst in FIFO order (head
// first) and returns the extended slice. The ring itself is
// unchanged. Together with Restore this is the ring's serialization
// primitive for the simulator's copy-on-write prefix snapshots.
func (r *Ring[T]) Snapshot(dst []T) []T {
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		dst = append(dst, r.buf[j])
	}
	return dst
}

// Restore replaces the ring's contents with src in FIFO order (src[0]
// becomes the head). The backing buffer is reused when large enough;
// src is copied, never retained.
func (r *Ring[T]) Restore(src []T) {
	r.Reset()
	for _, v := range src {
		r.Push(v)
	}
}

// grow doubles the capacity (starting at 8), unrolling the circular
// contents into the front of the new buffer.
func (r *Ring[T]) grow() {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = 8
	}
	buf := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		buf[i] = r.buf[j]
	}
	r.buf = buf
	r.head = 0
}
