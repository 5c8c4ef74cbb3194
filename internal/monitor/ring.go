package monitor

import (
	"fmt"
	"math"
	"slices"
)

// ringFloor is the first backing-array size of a ring that grows from
// empty.
const ringFloor = 8

// ring is a bounded FIFO of at most max values — a series' sealed raw
// blocks, a tier's sealed buckets — whose backing array grows lazily: it
// starts empty and doubles from ringFloor up to max.  The array never
// exceeds max and never shrinks, so a ring costs memory for the values
// it holds, at most twice that while growing.  It is guarded by the
// owning series' mutex.
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
// runs only while buf is exactly full, so the copy is the whole
// contents, oldest first, and head lands at n.
func (r *ring[T]) grow() {
	size := min(max(2*len(r.buf), ringFloor), r.max)
	r.buf = r.appendTo(make([]T, 0, size))[:size]
	r.head = r.n
}

// at returns the i-th oldest value, 0 <= i < n.
func (r *ring[T]) at(i int) *T {
	i += r.head - r.n
	if i < 0 {
		i += len(r.buf)
	}
	return &r.buf[i]
}

// pop removes and returns the oldest value; the ring must not be empty.
// The slot is cleared so the ring no longer references what it held.
func (r *ring[T]) pop() T {
	p := r.at(0)
	v := *p
	var zero T
	*p = zero
	r.n--
	return v
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

// blockPoints is how many raw points a series seals into one block.
const blockPoints = 64

// block is one sealed run of blockPoints raw points (fewer never occur;
// N keeps the block self-describing): their time range, for pruning
// windows without decoding, and the two v4 columns that hold them — the
// delta-of-delta times, then the Gorilla XOR values, each as
// appendDeltaColumn and appendXORColumn write a single group.  Steady
// series code in 1–2 B a point instead of Point's 16.  Snapshots carry
// blocks as they are (see ExportSealed), hence the exported name.
type block = SealedBlock

// SealedBlock is a run of points in the block codec: their time range
// (±Inf when a time is NaN), their count, and their time column then
// their value column.
type SealedBlock struct {
	Tmin, Tmax float64
	N          int
	Data       []byte
}

// blockBytes bounds a block's encoding: per column 64 raw bits, at most
// 77 bits for every further entry (a time's 5-bit prefix and 64 bits, a
// value's 13 bits of window and 64), and a length prefix.
const blockBytes = 2 * (8 + (blockPoints-1)*77/8 + 4)

// sealScratch holds a few buffers that seals encode into before the
// exact-size copy (the column writers' output escapes, so a stack array
// would be a heap allocation per seal).  A seal that finds none allocates
// one, and one that finds the cache full drops its own.  Eight covers a
// seal in flight on every core of a small node; a seal holds a buffer
// for about a microsecond, once per 64 appends of a series.  It is not a
// sync.Pool, which the race detector makes drop buffers at random, so
// the append path's allocation pins would not hold under -race.
var sealScratch = make(chan *[blockBytes]byte, 8)

// sealBlock encodes pts, at most blockPoints of them, into a block.  Its
// bytes go into spare, an evicted block's buffer, when that holds them
// and is at most twice their size, and into a new exact-size allocation
// otherwise: a full series of steady shape seals without allocating,
// and buffers cannot ratchet up to the size of a noisy past.
func sealBlock(pts []Point, spare []byte) block {
	var scratch *[blockBytes]byte
	select {
	case scratch = <-sealScratch:
	default:
		scratch = new([blockBytes]byte)
	}
	b := appendBlock(scratch[:0], pts)
	if len(b.Data) > cap(spare) || cap(spare) > 2*len(b.Data) {
		spare = nil
	}
	b.Data = append(spare[:0], b.Data...)
	select {
	case sealScratch <- scratch:
	default:
	}
	return b
}

// appendBlock encodes pts, at most blockPoints of them, onto dst; the
// block's data is the appended bytes, capped there.
func appendBlock(dst []byte, pts []Point) block {
	var ts, vs [blockPoints]float64
	for i, p := range pts {
		ts[i], vs[i] = p.Time, p.Value
	}
	b := block{N: len(pts)}
	b.Tmin, b.Tmax = timeSpan(pts)
	start := len(dst)
	dst = appendDeltaColumn(dst, ts[:len(pts)], nil)
	dst = appendXORColumn(dst, vs[:len(pts)], nil)
	b.Data = dst[start:len(dst):len(dst)]
	return b
}

// timeSpan is the range of the points' times, for pruning windows:
// (+Inf, -Inf) when there are none, and (-Inf, +Inf) when a time is
// NaN, which no range test matches, so the block is never pruned.
func timeSpan(pts []Point) (tmin, tmax float64) {
	tmin, tmax = math.Inf(1), math.Inf(-1)
	nan := false
	for _, p := range pts {
		// Plain comparisons: the builtin min and max cost more than the
		// encoding itself.
		if p.Time < tmin {
			tmin = p.Time
		}
		if p.Time > tmax {
			tmax = p.Time
		}
		nan = nan || p.Time != p.Time
	}
	if nan {
		return math.Inf(-1), math.Inf(1)
	}
	return tmin, tmax
}

// appendTo decodes the block's points onto out, oldest first.  The
// columns were written by sealBlock, so they always decode.
func (b *block) appendTo(out []Point) []Point {
	out, _ = decodeBlock(b.Data, b.N, out)
	return out
}

// decodeBlock decodes the n points of a block's data onto out, failing
// unless both columns decode and nothing follows them.
func decodeBlock(data []byte, n int, out []Point) ([]Point, error) {
	var ts, vs [blockPoints]float64
	if n > blockPoints {
		return out, fmt.Errorf("a block of %d points, more than %d", n, blockPoints)
	}
	d := v4Decoder{b: data}
	times, err := decodeDeltaColumn(d.column("time column"), n, nil, ts[:0])
	if err != nil {
		return out, err
	}
	values, err := decodeXORColumn(d.column("value column"), n, nil, vs[:0])
	switch {
	case d.err != nil:
		return out, d.err
	case err != nil:
		return out, err
	case d.off != len(data):
		return out, fmt.Errorf("%d bytes after the block's columns", len(data)-d.off)
	}
	for i, t := range times {
		out = append(out, Point{Time: t, Value: values[i]})
	}
	return out, nil
}

// rawPoints is a series' bounded FIFO of at most max raw points, held
// in three parts, oldest to newest:
//
//   - tail: the oldest block, popped from blocks once the series is full
//     and drained one eviction at a time (toff of its tn points are
//     gone).  It is decoded into tail only when an eviction needs the
//     values — a tiered series feeding tiers[0].absorb; evicting from an
//     untiered series just counts.
//   - blocks: sealed blocks of blockPoints points each.
//   - head: the newest points, uncompressed, fewer than blockPoints.  It
//     grows lazily and is sealed into a block the moment it fills; its
//     array is then reused.
//
// Points therefore leave one at a time, oldest first, exactly as from a
// plain ring of max.  A series too small ever to seal evicts from its
// head instead, swapped in as the tail.
type rawPoints struct {
	oldest   block
	tail     []Point // oldest's points once decoded, or the swapped-in head
	tn, toff int
	blocks   ring[block]
	head     []Point
	n        int    // points held, <= max
	max      int    // the store's capacity (-retain)
	last     Point  // the most recent push, for Latest
	spare    []byte // the drained tail block's bytes, for the next seal
}

func newRawPoints(max int) rawPoints {
	return rawPoints{max: max, blocks: ring[block]{max: max / blockPoints}}
}

// push appends p.  Once max points are held it first evicts the oldest,
// with full set; the evicted point itself is returned only when values
// is set.
func (r *rawPoints) push(p Point, values bool) (evicted Point, full bool) {
	if r.n == r.max {
		evicted, full = r.evict(values), true
	} else {
		r.n++
	}
	if len(r.head) == cap(r.head) {
		// Double from ringFloor; the head never holds more than
		// blockPoints (it seals) nor more than max points.
		size := min(max(2*cap(r.head), ringFloor), blockPoints, r.max)
		r.head = append(make([]Point, 0, size), r.head...)
	}
	r.head = append(r.head, p)
	r.last = p
	if len(r.head) == blockPoints {
		r.blocks.push(sealBlock(r.head, r.spare))
		r.head, r.spare = r.head[:0], nil
	}
	return evicted, full
}

// evict removes the oldest point for push, which keeps n; the FIFO must
// not be empty.
func (r *rawPoints) evict(values bool) Point {
	if r.toff == r.tn {
		if r.blocks.n > 0 {
			r.oldest = r.blocks.pop()
			r.tail, r.tn = r.tail[:0], r.oldest.N
		} else {
			r.tail, r.head = r.head, r.tail[:0]
			r.tn = len(r.tail)
		}
		r.toff = 0
	}
	if values && len(r.tail) < r.tn {
		if cap(r.tail) < r.tn {
			r.tail = make([]Point, 0, r.tn)
		}
		r.tail = r.oldest.appendTo(r.tail[:0])
	}
	if r.toff++; r.toff == r.tn && r.oldest.Data != nil {
		// Drained: its bytes can hold the next seal, which in a full
		// series comes in this same push.
		r.spare, r.oldest = r.oldest.Data, block{}
	}
	if !values {
		return Point{}
	}
	return r.tail[r.toff-1]
}

// misses reports whether the block holds no point in [from, to] (to < 0:
// no upper bound).  A NaN time keeps a block from ever missing.
func (b *block) misses(from, to float64) bool {
	return b.Tmax < from || (to >= 0 && b.Tmin > to)
}

// appendRange appends the held points to out, oldest first, skipping
// undecoded every block whose time range misses [from, to].  What is
// appended is a superset of the points in range: blocks are decoded
// whole, and the head is appended whole.
func (r *rawPoints) appendRange(out []Point, from, to float64) []Point {
	size := r.tn + len(r.head) // grow out once, not once per block
	for i := range r.blocks.n {
		if b := r.blocks.at(i); !b.misses(from, to) {
			size += b.N
		}
	}
	out = slices.Grow(out, size)
	if r.toff < r.tn {
		if len(r.tail) == r.tn {
			out = append(out, r.tail[r.toff:]...)
		} else if !r.oldest.misses(from, to) {
			start := len(out)
			out = r.oldest.appendTo(out)
			out = append(out[:start], out[start+r.toff:]...)
		}
	}
	for i := range r.blocks.n {
		if b := r.blocks.at(i); !b.misses(from, to) {
			out = b.appendTo(out)
		}
	}
	return append(out, r.head...)
}

// oldestTime is the earliest time held (+Inf when empty): a stitched
// window's coverage boundary, which the pruned points cannot supply.
func (r *rawPoints) oldestTime() float64 {
	t := math.Inf(1)
	if r.toff < r.tn {
		tail := r.tail
		if len(tail) < r.tn { // undecoded: an untiered series, which stitches nothing
			tail = r.oldest.appendTo(nil)
		}
		for _, p := range tail[r.toff:] {
			if p.Time < t {
				t = p.Time
			}
		}
	}
	for i := range r.blocks.n {
		if b := r.blocks.at(i); b.Tmin < t {
			t = b.Tmin
		}
	}
	for _, p := range r.head {
		if p.Time < t {
			t = p.Time
		}
	}
	return t
}

// reset replaces the contents with pts, oldest first, keeping the newest
// max: whole blocks from the oldest, the rest in an exact-size head.
func (r *rawPoints) reset(pts []Point) {
	if len(pts) > r.max {
		pts = pts[len(pts)-r.max:]
	}
	r.oldest, r.tail, r.tn, r.toff, r.spare = block{}, nil, 0, 0, nil
	r.n = len(pts)
	if len(pts) > 0 {
		r.last = pts[len(pts)-1]
	}
	var blocks []block
	for ; len(pts) >= blockPoints; pts = pts[blockPoints:] {
		blocks = append(blocks, sealBlock(pts[:blockPoints], nil))
	}
	r.blocks.reset(blocks)
	r.head = append([]Point(nil), pts...)
}
