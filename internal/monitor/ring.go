package monitor

// ringFloor is the first backing-array size of a ring that grows from
// empty.
const ringFloor = 8

// ring is a bounded FIFO of at most max values — a series' raw points,
// a tier's sealed buckets — whose backing array grows lazily: it starts
// empty and doubles from ringFloor up to max.  Growth only happens while
// the ring has not wrapped (it wraps only once it holds max values), so
// the live values are one contiguous run and growing is a single copy.
// The array never exceeds max and never shrinks, so a ring costs memory
// for the values it holds, at most twice that while growing.  It is
// guarded by the owning series' mutex.
type ring[T any] struct {
	buf  []T
	head int // next write position
	n    int // filled entries, <= len(buf)
	max  int
}

// push appends v.  Once the ring holds max values it overwrites the
// oldest one, returning it with full set.
func (r *ring[T]) push(v T) (evicted T, full bool) {
	if r.n == len(r.buf) {
		if r.n < r.max {
			r.grow()
		} else {
			evicted, full = r.buf[r.head], true
		}
	}
	r.buf[r.head] = v
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	if !full {
		r.n++
	}
	return evicted, full
}

// grow doubles the backing array (at least ringFloor, at most max).  It
// runs only while buf is exactly full and not wrapped, so buf[:n] is the
// oldest-first contents and head lands at n.
func (r *ring[T]) grow() {
	size := min(max(2*len(r.buf), ringFloor), r.max)
	buf := make([]T, size)
	copy(buf, r.buf)
	r.buf, r.head = buf, r.n
}

// appendTo appends the held values to out, oldest first.
func (r *ring[T]) appendTo(out []T) []T {
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
		out = append(out, r.buf[start:]...)
		start = 0
	}
	return append(out, r.buf[start:r.head]...)
}

// newest returns the most recently pushed value.
func (r *ring[T]) newest() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	i := r.head - 1
	if i < 0 {
		i += len(r.buf)
	}
	return r.buf[i], true
}

// reset replaces the contents with vs, oldest first, keeping the newest
// max.  The backing array is exactly as large as what it restores, so a
// recovered ring is no larger than a live one holding the same values.
func (r *ring[T]) reset(vs []T) {
	if len(vs) > r.max {
		vs = vs[len(vs)-r.max:]
	}
	r.buf = make([]T, len(vs))
	copy(r.buf, vs)
	r.n, r.head = len(vs), 0
}
