package monitor

// The v4 wire format: a binary columnar batch encoding, content-negotiated
// on POST /ingest alongside the JSON-lines schema via the Content-Type
// "application/x-likwid-v4", and the frame payload of the persist WAL
// (whole, or — in a reference frame — its columns alone, behind the
// identity section of an earlier frame of the same shape).
//
// A payload states every identity once and runs its columns across the
// whole batch.  A string table holds each distinct collector, source,
// metric, scope and label string; a set table holds each distinct label
// set as references into it; a group directory names each series of the
// batch — all samples sharing one (collector, source, metric, scope, id,
// labels) identity — by reference, with its row count; and three columns
// hold every row, group-major in directory order:
//
//	payload := "LKD4" uvarint(nStrings) str*
//	           uvarint(nSets) set*
//	           uvarint(nGroups) group*
//	           col(times) col(sentAts) col(values)
//	str     := uvarint(len) bytes
//	set     := uvarint(nPairs) (ref(name) ref(value))*   // sorted by name
//	group   := ref(collector) ref(source) ref(metric) ref(scope)
//	           uvarint(id) ref(set) uvarint(rows)
//	ref     := uvarint(index into its table)
//	col     := uvarint(len) bytes
//
// The time and sent_at columns are delta-of-delta codes over the int64
// reinterpretation of each float64's bit pattern (Gorilla-style
// prefix-coded zigzag fields, two's-complement wrap): lossless for every
// float64, and because the bit patterns of a regularly-sampled monotone
// series have near-constant deltas within a binade, the second
// difference is usually zero — one bit per row.  Only the batch's first
// row is written raw.  A group's first row is coded against the row
// before it with the previous delta taken as 0, and it does not seed the
// next delta, so a group boundary costs one code and a deep group's
// cadence is its own.  A wide flush — one row per group, every row
// sharing one timestamp and one sent_at — pays one bit per row in each.
// The value column is the classic Gorilla XOR bitstream (Pelkonen et
// al., VLDB 2015) over all rows, each XORed with the row before it: 1 bit
// for a repeated value, a reused leading/trailing-zero window for
// slowly-moving ones.  It keeps two windows by the same split: one
// carried from group-first row to group-first row, one inside a group,
// cleared at its first row — so the XOR between two series never widens
// the window a deep group's own rows code in.
//
// Both directions work on the store's own types: the encoder groups
// []Sample by the interned Key; the decoder produces a groupBatch whose
// identity strings are substrings of one copy of the payload, so a group
// costs no allocations of its own, each string, scope and label set is
// checked once per payload, and nothing is interned until the whole
// payload has validated.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"unsafe"

	"likwid/internal/telemetry"
)

// V4ContentType is the Content-Type negotiating the v4 binary columnar
// batch format on POST /ingest.
const V4ContentType = "application/x-likwid-v4"

// v4Magic leads every v4 payload; a JSON-lines body posted with the v4
// Content-Type, or a payload of a retired layout, fails here, loudly.
const v4Magic = "LKD4"

// v4MaxEntries caps each table's entry count, validated (with the payload
// size) before the table is allocated.
const v4MaxEntries = 1 << 20

// ---- bit I/O --------------------------------------------------------------

// bitWriter packs MSB-first bit fields onto the end of b, a 64-bit word
// at a time, so column bits land directly in the output buffer.
type bitWriter struct {
	b   []byte
	acc uint64 // pending bits, left-aligned
	n   uint   // bits used in acc, < 64
}

func (w *bitWriter) writeBits(v uint64, nbits uint) {
	if nbits < 64 {
		v &= 1<<nbits - 1
	}
	free := 64 - w.n
	if nbits < free {
		w.acc |= v << (free - nbits)
		w.n += nbits
		return
	}
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc|v>>(nbits-free))
	w.n = nbits - free
	w.acc = v << (64 - w.n) // a shift by 64 is 0: nothing pending
}

// finish flushes the pending bits, zero-padded to a whole byte.
func (w *bitWriter) finish() []byte {
	for ; w.n > 0; w.n -= min(w.n, 8) {
		w.b = append(w.b, byte(w.acc>>56))
		w.acc <<= 8
	}
	return w.b
}

// bitReader reads the fields back.  Reading past the end sets short and
// yields zeros from then on, so a column decoder checks once per column.
// It buffers the column a word at a time: a decoder peeks at the next
// bits, parses a whole entry from them and skips it, so a steady entry
// costs a few register operations.
type bitReader struct {
	b     []byte
	next  int    // next byte of b to buffer
	acc   uint64 // buffered bits, left-aligned
	n     uint   // buffered bits valid in acc
	short bool
}

// fill buffers at least 57 bits, or everything left.  It runs once per
// word or so; kept out of line so that peek inlines.
//
//go:noinline
func (r *bitReader) fill() {
	if r.next+8 <= len(r.b) {
		// Load a whole word; count only its whole bytes that fit.  The
		// bits of a partly fitting byte are loaded again, in place, by the
		// next fill.
		r.acc |= binary.BigEndian.Uint64(r.b[r.next:]) >> r.n
		k := (64 - r.n) / 8
		r.next += int(k)
		r.n += 8 * k
		return
	}
	for ; r.n <= 56 && r.next < len(r.b); r.next++ {
		r.acc |= uint64(r.b[r.next]) << (56 - r.n)
		r.n += 8
	}
}

// peek returns the next bits without consuming them: at least 57 valid
// ones, zeros past the end.
func (r *bitReader) peek() uint64 {
	if r.n < 57 && r.next < len(r.b) {
		r.fill()
	}
	return r.acc
}

// skip consumes k <= 57 peeked bits; running past the end sets short.
func (r *bitReader) skip(k uint) {
	if r.short = r.short || k > r.n; !r.short {
		r.acc <<= k
		r.n -= k
	}
}

// readBits reads an nbits-wide field (at most 64).
func (r *bitReader) readBits(nbits uint) uint64 {
	if nbits > 57 {
		hi := r.readBits(nbits - 32)
		return hi<<32 | r.readBits(32)
	}
	w := r.peek() >> (64 - nbits) // a shift by 64 is 0
	if r.skip(nbits); r.short {
		return 0
	}
	return w
}

// done reports how a column decode ended: short, or with more than the
// final byte's padding left over.
func (r *bitReader) done(what string) error {
	if r.short {
		return fmt.Errorf("truncated %s column", what)
	}
	if rest := r.n + uint(len(r.b)-r.next)*8; rest >= 8 {
		return fmt.Errorf("%d trailing bits after %s column", rest, what)
	}
	return nil
}

// ---- columns --------------------------------------------------------------

// closeColumn patches the one-byte length prefix reserved at dst[at] once
// the column is in place, making room when it needs a longer uvarint.
func closeColumn(dst []byte, at int) []byte {
	n := len(dst) - at - 1
	if n < 0x80 {
		dst[at] = byte(n)
		return dst
	}
	var prefix [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(prefix[:], uint64(n))
	dst = append(dst, prefix[:k-1]...)
	copy(dst[at+k:], dst[at+1:at+1+n])
	copy(dst[at:], prefix[:k])
	return dst
}

// dodWidths are the payload widths behind the delta column's prefixes.
var dodWidths = [...]uint{0, 7, 12, 20, 32, 64}

// groupStarts walks a column's rows, in order from row 0, in step with
// the ascending first rows of its groups (an empty group shares the next
// one's first row).  The zero next makes row 0 a first row, as it is.
type groupStarts struct {
	starts []int32 // first rows not yet passed
	next   int     // the next first row; -1 once none is left
}

// at reports whether row i is the first row of a group.
func (g *groupStarts) at(i int) bool {
	if i != g.next {
		return false
	}
	for len(g.starts) > 0 && int(g.starts[0]) <= i {
		g.starts = g.starts[1:]
	}
	g.next = -1
	if len(g.starts) > 0 {
		g.next = int(g.starts[0])
	}
	return true
}

// appendDeltaColumn appends a length-prefixed delta-of-delta column over
// the int64 reinterpretation of each value's bit pattern; starts lists
// the first row of every group, ascending.  Wrapping int64 arithmetic
// makes the round trip exact for every input, including NaN and
// infinities (the ingest validator rejects those later, not the codec).
// The first entry is 64 raw bits; every later entry is the second
// difference under a Gorilla-style prefix code, so a regular series
// (second difference zero) costs one bit per row:
//
//	'0'                 dod == 0
//	'10'    + 7 bits    zigzag(dod) < 2^7
//	'110'   + 12 bits   zigzag(dod) < 2^12
//	'1110'  + 20 bits   zigzag(dod) < 2^20
//	'11110' + 32 bits   zigzag(dod) < 2^32
//	'11111' + 64 bits   everything else
//
// A group's first row takes the previous delta as 0 and leaves it 0.
func appendDeltaColumn(dst []byte, vals []float64, starts []int32) []byte {
	at := len(dst)
	w := bitWriter{b: append(dst, 0)}
	gs := groupStarts{starts: starts}
	var prev, prevDelta int64
	for i, v := range vals {
		b := int64(math.Float64bits(v))
		first := gs.at(i)
		if i == 0 {
			w.writeBits(uint64(b), 64)
			prev = b
			continue
		}
		delta := b - prev
		prev = b
		dod := delta - prevDelta
		prevDelta = delta
		if first {
			dod, prevDelta = delta, 0
		}
		if dod == 0 {
			w.writeBits(0, 1)
			continue
		}
		z := uint64(dod)<<1 ^ uint64(dod>>63) // zigzag
		class := uint(1)                      // number of leading 1s in the prefix
		for z>>dodWidths[class] != 0 && class < 5 {
			class++
		}
		if width := dodWidths[class]; class < 5 {
			// class 1s, a 0 and the field in one write: at most 37 bits.
			w.writeBits((1<<class-1)<<(width+1)|z, class+1+width)
		} else {
			w.writeBits(0b11111, 5)
			w.writeBits(z, width)
		}
	}
	return closeColumn(w.finish(), at)
}

// columnFits reports whether col can hold n entries at all (64 bits for
// the first, at least one for every other), so a hostile row count is
// rejected before the columns grow to it.
func columnFits(col []byte, n int) bool {
	return n == 0 || uint64(n)+63 <= uint64(len(col))*8
}

// decodeDeltaColumn appends the n entries of a delta column, whose
// groups begin at starts, to dst.
func decodeDeltaColumn(col []byte, n int, starts []int32, dst []float64) ([]float64, error) {
	if !columnFits(col, n) {
		return dst, fmt.Errorf("truncated delta column: %d bytes cannot hold %d entries", len(col), n)
	}
	r := bitReader{b: col}
	gs := groupStarts{starts: starts}
	var prev, prevDelta int64
	for i := 0; i < n && !r.short; i++ {
		first := gs.at(i)
		if i == 0 {
			prev = int64(r.readBits(64))
		} else {
			// One peek parses the entry: the prefix's leading 1s give
			// its class, and the field follows in the same peek unless
			// it is a 64-bit one.
			var dod int64
			if w := r.peek(); w>>63 == 0 { // a steady cadence's '0'
				r.skip(1)
			} else {
				class := min(uint(bits.LeadingZeros64(^w)), 5)
				prefix, width := min(class+1, 5), dodWidths[class]
				var z uint64
				if prefix+width <= 57 {
					z = w << prefix >> (64 - width)
					r.skip(prefix + width)
				} else {
					r.skip(prefix)
					z = r.readBits(width)
				}
				dod = int64(z>>1) ^ -int64(z&1) // unzigzag
			}
			if first {
				prev += dod // prevDelta is 0 here, and stays 0
				prevDelta = 0
			} else {
				prevDelta += dod
				prev += prevDelta
			}
		}
		dst = append(dst, math.Float64frombits(uint64(prev)))
	}
	return dst, r.done("delta")
}

// xorWindow is a value column's leading-zero count and significant-bit
// count; sig == 0 means none is set yet.
type xorWindow struct{ lead, sig uint }

// windowFor picks the window row i codes against: a group's first row
// uses (and keeps) the window carried between group-first rows; any
// other row the window carried inside its group, which each group's
// first row clears.  A deep group's rows thus code as if the group stood
// alone, and the XOR from one series to the next cannot widen it.
func windowFor(wins *[2]xorWindow, first bool) *xorWindow {
	if first {
		wins[0] = xorWindow{}
		return &wins[1]
	}
	return &wins[0]
}

// appendXORColumn appends a length-prefixed Gorilla value column; starts
// lists the first row of every group, ascending.  The first value is
// verbatim (64 bits); then per value either a 0 bit (unchanged), or 1+0
// and the XOR with the previous row's meaningful bits inside the current
// leading/trailing-zero window (see windowFor), or 1+1 and an explicit
// 5-bit leading-zero count, 6-bit significant-bit count minus one, and
// the bits themselves, which become the current window.
func appendXORColumn(dst []byte, vals []float64, starts []int32) []byte {
	at := len(dst)
	w := bitWriter{b: append(dst, 0)}
	gs := groupStarts{starts: starts}
	var wins [2]xorWindow
	var prev uint64
	for i, v := range vals {
		b := math.Float64bits(v)
		win := windowFor(&wins, gs.at(i))
		if i == 0 {
			w.writeBits(b, 64)
			prev = b
			continue
		}
		xor := b ^ prev
		prev = b
		if xor == 0 {
			w.writeBits(0, 1)
			continue
		}
		lead := min(uint(bits.LeadingZeros64(xor)), 31) // 5-bit field; more zeros just ride inside the window
		trail := uint(bits.TrailingZeros64(xor))
		sig := 64 - lead - trail
		if win.sig > 0 && lead >= win.lead && 64-win.lead-win.sig <= trail {
			// The XOR fits the current window: reuse it.  Control bits
			// and field go in one write when they fit 64 bits.
			field := xor >> (64 - win.lead - win.sig)
			if win.sig <= 62 {
				w.writeBits(0b10<<win.sig|field, 2+win.sig)
			} else {
				w.writeBits(0b10, 2)
				w.writeBits(field, win.sig)
			}
			continue
		}
		head := 0b11<<11 | uint64(lead)<<6 | uint64(sig-1)
		if sig <= 64-13 {
			w.writeBits(head<<sig|xor>>trail, 13+sig)
		} else {
			w.writeBits(head, 13)
			w.writeBits(xor>>trail, sig)
		}
		*win = xorWindow{lead, sig}
	}
	return closeColumn(w.finish(), at)
}

// decodeXORColumn appends the n entries of a value column, whose groups
// begin at starts, to dst.
func decodeXORColumn(col []byte, n int, starts []int32, dst []float64) ([]float64, error) {
	if !columnFits(col, n) {
		return dst, fmt.Errorf("truncated value column: %d bytes cannot hold %d entries", len(col), n)
	}
	r := bitReader{b: col}
	gs := groupStarts{starts: starts}
	var wins [2]xorWindow
	var prev uint64
	for i := 0; i < n && !r.short; i++ {
		win := windowFor(&wins, gs.at(i))
		// One peek parses an entry: control bits, any new window, and
		// the field unless it runs past the 57 bits a peek guarantees.
		if w := r.peek(); i == 0 {
			prev = r.readBits(64)
		} else if w>>63 == 0 { // '0': unchanged
			r.skip(1)
		} else {
			ctl := uint(2) // '10': the current window
			if w>>62 == 0b11 {
				ctl = 2 + 5 + 6 // '11': a new window
				window := w << 2 >> (64 - 11)
				*win = xorWindow{uint(window >> 6), uint(window&63) + 1}
			}
			if r.skip(ctl); !r.short {
				if win.lead+win.sig > 64 {
					return dst, fmt.Errorf("value column entry %d: window %d+%d exceeds 64 bits", i, win.lead, win.sig)
				}
				if win.sig == 0 {
					return dst, fmt.Errorf("value column entry %d reuses a window before one was set", i)
				}
				var field uint64
				if ctl+win.sig <= 57 {
					field = w << ctl >> (64 - win.sig)
					r.skip(win.sig)
				} else {
					field = r.readBits(win.sig)
				}
				prev ^= field << (64 - win.lead - win.sig)
			}
		}
		dst = append(dst, math.Float64frombits(prev))
	}
	return dst, r.done("value")
}

// ---- encoding -------------------------------------------------------------

// sampleMeta is what the wire carries per sample beyond the Sample: its
// collector and the push sink's sent_at stamp (the WAL journals neither).
type sampleMeta struct {
	collector string
	sentAt    float64
}

// v4GroupKey is the identity a column group shares.
type v4GroupKey struct {
	collector string
	key       Key
}

type v4Group struct {
	start, n int32    // the group's run in V4Encoder.order
	refs     [4]int32 // string refs: collector, source, metric, scope
	set      int32    // label set ref
}

// V4Encoder renders sample batches as v4 payloads, reusing its grouping
// scratch and tables across calls: a warm encoder allocates nothing
// beyond what dst needs to grow.  It also remembers the identity of
// recent batches (see v4Shape), so a batch with a known shape pays only
// for its columns.  The zero value is ready; not safe for concurrent
// use.
type V4Encoder struct {
	index  map[v4GroupKey]int32
	keys   []v4GroupKey // each group's identity
	groups []v4Group
	gid    []int32 // group of each sample
	order  []int32 // sample indexes, group-major, arrival order within a group
	starts []int32 // each group's first row

	strIndex map[string]int32
	strs     []string
	setIndex map[Labels]int32
	sets     []Labels
	pairRefs []int32 // string refs of every set's pairs, name then value, set-major

	times, sentAts, values []float64 // the batch columns, group-major

	shapes     []v4Shape            // remembered; past len, a reset's entries, to be reused
	shapeIndex map[v4ShapeKey]int32 // 1 + each key's newest shape's index
	shapeBytes int                  // what the remembered shapes hold, bounded by v4MaxShapeBytes
	resets     uint64               // how often the shape cache was reset
	last       int32                // the shape the last encode used, -1 for none
	tShapes    shapeCounters
}

// v4Shape is one remembered batch identity: each group's key and each
// row's group, the payload bytes from the magic through the group
// directory, and the row order and group starts the columns follow.
// Between reconfigurations an agent's ticks, a receiver's WAL frames and
// its forwarded batches repeat their shapes — one per agent and
// collector mix — and a batch whose rows carry the same keys at the same
// positions has a byte-identical identity section.  Entries own their
// slices: the encoder's scratch is never shared with them.
type v4Shape struct {
	keys               []v4GroupKey
	head               []byte
	gid, order, starts []int32
	next               int32 // 1 + the index of the previous shape under the same key
}

// v4ShapeKey indexes the shape cache: a batch's row count and first row
// (its collector and series), which tell the batches of different agents
// and collectors apart; shapes that share one are told apart row by row.
type v4ShapeKey struct {
	rows  int
	first v4GroupKey
}

// shapeSize is what a remembered shape of an identity section of head
// bytes, rows rows and groups groups holds, its index entry included.
func shapeSize(head, rows, groups int) int {
	const entry = unsafe.Sizeof(v4Shape{}) + unsafe.Sizeof(v4ShapeKey{}) + 8
	return int(entry) + head + 8*rows + groups*int(unsafe.Sizeof(v4GroupKey{})+4)
}

// v4MaxShapeBytes bounds what one encoder's shape cache holds, by bytes
// only: how many shapes come round between resets is the fleet's, not
// the encoder's, so no entry count is assumed.  Past it the cache is
// reset, like mergeCache, and refilled by the misses that follow.  About
// 90 shapes of a 512-series tick fit.  A variable only so tests can
// lower it.
var v4MaxShapeBytes = 4 << 20

// shapeCounters count a shape cache's hits, misses and resets; the zero
// value counts nothing.
type shapeCounters [3]*telemetry.Counter

const (
	shapeHit = iota
	shapeMiss
	shapeReset
)

// instrument registers the counters on reg under
// likwid_v4_shape_cache_total{cache=name}; caches instrumented under one
// name share them.
func (c *shapeCounters) instrument(reg *telemetry.Registry, name string) {
	for i, result := range [...]string{"hit", "miss", "reset"} {
		c[i] = reg.Counter("likwid_v4_shape_cache_total", "cache", name, "result", result)
	}
}

func (c *shapeCounters) count(i int) {
	if c[i] != nil {
		c[i].Inc()
	}
}

// Instrument counts the encoder's shape cache hits, misses and resets on
// reg under likwid_v4_shape_cache_total{cache=name}.
func (e *V4Encoder) Instrument(reg *telemetry.Registry, name string) { e.tShapes.instrument(reg, name) }

// Encode appends the v4 payload of samples to dst with an empty collector
// and no sent_at stamps — the form the persist WAL frames.  Groups come
// in first-appearance order, a group's samples in arrival order, and
// table entries in the order the groups first use them, so the encoding
// is deterministic; DecodeV4Samples is its inverse.
func (e *V4Encoder) Encode(dst []byte, samples []Sample) ([]byte, error) {
	return e.encode(dst, samples, nil)
}

// V4ShapeID names a batch shape an encoder remembers.  It stays valid
// until the encoder's shape cache resets, which changes Resets; a batch
// the cache did not take (larger than its bound) has Index -1.
type V4ShapeID struct {
	Resets uint64
	Index  int32
}

// EncodeShape is Encode that also names the remembered shape the payload
// was encoded with, and returns where in it the columns begin: every
// payload of one shape, until Resets changes, carries a byte-identical
// identity section before them.  The WAL journals that section once per
// file and a repeat of the shape as a reference to it.
func (e *V4Encoder) EncodeShape(dst []byte, samples []Sample) (payload []byte, id V4ShapeID, cols int, err error) {
	at := len(dst)
	if payload, err = e.encode(dst, samples, nil); err != nil || e.last < 0 {
		return payload, V4ShapeID{e.resets, -1}, at, err
	}
	return payload, V4ShapeID{e.resets, e.last}, at + len(e.shapes[e.last].head), nil
}

// groupKeyOf is row i's group identity.
func groupKeyOf(samples []Sample, meta []sampleMeta, i int) v4GroupKey {
	gk := v4GroupKey{key: samples[i].Key()}
	if meta != nil {
		gk.collector = meta[i].collector
	}
	return gk
}

// encode is Encode with per-sample wire metadata (index-aligned with
// samples; nil means all zero) — the push sink's flush.
func (e *V4Encoder) encode(dst []byte, samples []Sample, meta []sampleMeta) ([]byte, error) {
	sk := v4ShapeKey{rows: len(samples)}
	if len(samples) > 0 {
		sk.first = groupKeyOf(samples, meta, 0)
	}
	var order, starts []int32
	if e.last = e.shape(sk, samples, meta); e.last >= 0 {
		e.tShapes.count(shapeHit)
		sh := &e.shapes[e.last]
		dst = append(dst, sh.head...)
		order, starts = sh.order, sh.starts
	} else {
		at := len(dst)
		var err error
		if dst, err = e.encodeHead(dst, samples, meta); err != nil {
			return dst, err
		}
		e.tShapes.count(shapeMiss)
		order, starts = e.remember(sk, dst[at:])
	}
	e.times, e.sentAts, e.values = e.times[:0], e.sentAts[:0], e.values[:0]
	for _, i := range order {
		e.times, e.values = append(e.times, samples[i].Time), append(e.values, samples[i].Value)
		if meta != nil {
			e.sentAts = append(e.sentAts, meta[i].sentAt)
		} else {
			e.sentAts = append(e.sentAts, 0)
		}
	}
	dst = appendDeltaColumn(dst, e.times, starts)
	dst = appendDeltaColumn(dst, e.sentAts, starts)
	return appendXORColumn(dst, e.values, starts), nil
}

// shape is the index of the remembered shape of samples, or -1: one
// under their key whose group keys they carry row by row.
func (e *V4Encoder) shape(sk v4ShapeKey, samples []Sample, meta []sampleMeta) int32 {
shapes:
	for i := e.shapeIndex[sk]; i > 0; i = e.shapes[i-1].next {
		sh := &e.shapes[i-1]
		for r, g := range sh.gid {
			if groupKeyOf(samples, meta, r) != sh.keys[g] {
				continue shapes
			}
		}
		return i - 1
	}
	return -1
}

// remember stores the shape the scratch holds after encodeHead, whose
// output was head, under sk, resetting the cache when it would outgrow
// its bound, and returns the row order and group starts to write the
// columns in; e.last names the new entry.  The entry takes the scratch's
// keys, gid, order and starts and leaves it the arrays it held before
// (or none), so no array is ever both an entry's and the scratch's.  A
// batch larger than the whole bound is not remembered.
func (e *V4Encoder) remember(sk v4ShapeKey, head []byte) (order, starts []int32) {
	size := shapeSize(len(head), len(e.order), len(e.keys))
	if size > v4MaxShapeBytes {
		return e.order, e.starts
	}
	if e.shapeBytes+size > v4MaxShapeBytes {
		e.tShapes.count(shapeReset)
		e.shapes, e.shapeBytes = e.shapes[:0], 0
		e.resets++
		clear(e.shapeIndex)
	}
	if e.shapeIndex == nil {
		e.shapeIndex = make(map[v4ShapeKey]int32)
	}
	e.shapes = slices.Grow(e.shapes, 1)[:len(e.shapes)+1]
	sh := &e.shapes[len(e.shapes)-1]
	sh.keys, e.keys = e.keys, sh.keys
	sh.gid, e.gid = e.gid, sh.gid
	sh.order, e.order = e.order, sh.order
	sh.starts, e.starts = e.starts, sh.starts
	sh.head = append(sh.head[:0], head...)
	sh.next, e.shapeIndex[sk] = e.shapeIndex[sk], int32(len(e.shapes))
	e.shapeBytes += size
	e.last = int32(len(e.shapes) - 1)
	return sh.order, sh.starts
}

// encodeHead groups samples into the scratch (order, starts) and appends
// the payload's identity section: magic, string and set tables, group
// directory.
func (e *V4Encoder) encodeHead(dst []byte, samples []Sample, meta []sampleMeta) ([]byte, error) {
	if e.index == nil {
		e.index = make(map[v4GroupKey]int32)
		e.strIndex = make(map[string]int32)
		e.setIndex = make(map[Labels]int32)
	}
	clear(e.index)
	e.keys, e.groups = e.keys[:0], e.groups[:0]
	e.gid = slices.Grow(e.gid[:0], len(samples))[:len(samples)]
	e.order = slices.Grow(e.order[:0], len(samples))[:len(samples)]
	for i := range samples {
		if samples[i].ID < 0 {
			return dst, fmt.Errorf("monitor: v4 encode: sample %d: negative id %d", i, samples[i].ID)
		}
		gk := groupKeyOf(samples, meta, i)
		var g int32
		if i > 0 && e.keys[e.gid[i-1]] == gk {
			g = e.gid[i-1] // group-major input: skip the hash
		} else if known, ok := e.index[gk]; ok {
			g = known
		} else {
			g = int32(len(e.groups))
			e.index[gk] = g
			e.keys, e.groups = append(e.keys, gk), append(e.groups, v4Group{})
		}
		e.groups[g].n++
		e.gid[i] = g
	}
	// Counting sort: each group's samples become one run of order.
	var next int32
	e.starts = e.starts[:0]
	for gi := range e.groups {
		g := &e.groups[gi]
		g.start, next, g.n = next, next+g.n, 0
		e.starts = append(e.starts, g.start)
	}
	for i, gi := range e.gid {
		g := &e.groups[gi]
		e.order[g.start+g.n] = int32(i)
		g.n++
	}
	e.tables()

	dst = append(dst, v4Magic...)
	dst = binary.AppendUvarint(dst, uint64(len(e.strs)))
	for _, s := range e.strs {
		dst = appendString(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.sets)))
	refs := e.pairRefs
	for _, ls := range e.sets {
		n := 2 * ls.Len()
		dst = binary.AppendUvarint(dst, uint64(n/2))
		for _, r := range refs[:n] {
			dst = binary.AppendUvarint(dst, uint64(r))
		}
		refs = refs[n:]
	}
	dst = binary.AppendUvarint(dst, uint64(len(e.groups)))
	for gi, g := range e.groups {
		for _, r := range g.refs {
			dst = binary.AppendUvarint(dst, uint64(r))
		}
		dst = binary.AppendUvarint(dst, uint64(e.keys[gi].key.ID))
		dst = binary.AppendUvarint(dst, uint64(g.set))
		dst = binary.AppendUvarint(dst, uint64(g.n))
	}
	return dst, nil
}

// tables resolves every group's string and label set refs, filling the
// tables in first-use order.  Neighbouring groups mostly share all but
// their metric (and the metric with a run of ids), so a field equal to
// the previous group's reuses its ref without a hash.
func (e *V4Encoder) tables() {
	clear(e.strIndex)
	clear(e.setIndex)
	e.strs, e.sets, e.pairRefs = e.strs[:0], e.sets[:0], e.pairRefs[:0]
	for gi := range e.groups {
		g := &e.groups[gi]
		k := &e.keys[gi].key
		for f, s := range [4]string{e.keys[gi].collector, k.Source, k.Metric, k.Scope.String()} {
			if gi > 0 && s == e.strs[e.groups[gi-1].refs[f]] {
				g.refs[f] = e.groups[gi-1].refs[f]
			} else {
				g.refs[f] = e.ref(s)
			}
		}
		if gi > 0 && k.Labels == e.keys[gi-1].key.Labels {
			g.set = e.groups[gi-1].set
			continue
		}
		set, ok := e.setIndex[k.Labels]
		if !ok {
			set = int32(len(e.sets))
			e.setIndex[k.Labels] = set
			e.sets = append(e.sets, k.Labels)
			if k.Labels.set != nil {
				for _, p := range k.Labels.set.pairs { // interned: already sorted by name
					e.pairRefs = append(e.pairRefs, e.ref(p.Name), e.ref(p.Value))
				}
			}
		}
		g.set = set
	}
}

// ref is the string table index of s, adding it on first use.
func (e *V4Encoder) ref(s string) int32 {
	r, ok := e.strIndex[s]
	if !ok {
		r = int32(len(e.strs))
		e.strIndex[s] = r
		e.strs = append(e.strs, s)
	}
	return r
}

// appendString is a length-prefixed string-table entry.
func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ---- decoding -------------------------------------------------------------

// sampleGroup is one series' run of rows in a groupBatch.  key.Labels
// and series are set by the stages after decode, once nothing can reject
// the payload any more: pairs interned (with the receiver defaults merged
// in), and the store series the rows land in.
type sampleGroup struct {
	key    Key
	pairs  []Label  // validated, sorted by name, duplicate-free; not interned
	set    *wireSet // the payload's label set pairs came from; nil once the group owns them
	lo, hi int      // rows [lo, hi) of the batch columns
	series *series
}

// wireSet is one entry of a v4 payload's label set table: its validated
// pairs, shared by every group that references it, and their interned
// handle once internLabels has run (the zero handle before, and for the
// empty set, whose interning is free).
type wireSet struct {
	pairs  []Label
	labels Labels
}

// groupBatch is one decoded ingest payload — what decodeV4 and
// decodeIngest both produce and every ingest stage runs over: identity
// once per group, label pairs once per group (JSON) or per label set
// (v4), the columns in shared backing arrays.
// Decoding validates everything and interns nothing, so a rejected
// payload leaves no residue anywhere.
type groupBatch struct {
	groups  []sampleGroup
	times   []float64
	sentAts []float64 // 0 where the record carried no stamp
	values  []float64
	pairs   []Label   // backing array of the groups' (or sets') pairs
	sets    []wireSet // a v4 payload's label sets
	ident   int       // a v4 payload's identity section: its first ident bytes
	starts  []int32   // a v4 payload's directory groups' first rows
	routed  []uint64  // the rows each route matched (Router.apply)
}

// rows counts the samples the batch's groups hold (a routed batch keeps
// its dropped groups' rows in the columns, unreferenced).
func (b *groupBatch) rows() int {
	n := 0
	for i := range b.groups {
		n += b.groups[i].hi - b.groups[i].lo
	}
	return n
}

// appendSamples appends the batch row by row, each under its group's key.
func (b *groupBatch) appendSamples(dst []Sample) []Sample {
	dst = slices.Grow(dst, b.rows())
	for i := range b.groups {
		g := &b.groups[i]
		for r := g.lo; r < g.hi; r++ {
			dst = append(dst, Sample{
				Source: g.key.Source, Metric: g.key.Metric, Scope: g.key.Scope, ID: g.key.ID,
				Labels: g.key.Labels, Time: b.times[r], Value: b.values[r],
			})
		}
	}
	return dst
}

// cmpLabelName orders label pairs by name.
func cmpLabelName(a, b Label) int { return strings.Compare(a.Name, b.Name) }

// checkPairs validates one label set's wire pairs — count, names, values
// — and orders them by name, rejecting duplicates.
func checkPairs(pairs []Label) error {
	if len(pairs) > maxLabels {
		return fmt.Errorf("monitor: %d labels exceed the limit of %d", len(pairs), maxLabels)
	}
	for _, p := range pairs {
		if err := checkLabel(p.Name, p.Value); err != nil {
			return err
		}
	}
	slices.SortFunc(pairs, cmpLabelName)
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Name == pairs[i-1].Name {
			return fmt.Errorf("duplicate label %q", pairs[i].Name)
		}
	}
	return nil
}

// checkMetric rejects a metric name that is empty or only whitespace.
func checkMetric(name string) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("empty metric")
	}
	return nil
}

// checkID rejects a series id the v4 wire cannot carry (0 through
// MaxInt32).
func checkID[I int | int64 | uint64](id I) error {
	if id < 0 || id > math.MaxInt32 {
		return fmt.Errorf("bad id %d", id)
	}
	return nil
}

// check is the record validation of the JSON decoder, which has no tables
// to run it once per string or set: it resolves the group's scope and id,
// orders its label pairs, and screens identity, labels and every row.
func (b *groupBatch) check(g *sampleGroup, scopeName string, id int64) (err error) {
	if g.key.Scope, err = ParseScope(scopeName); err != nil {
		return err
	}
	if err := checkMetric(g.key.Metric); err != nil {
		return err
	}
	if err := checkID(id); err != nil {
		return err
	}
	g.key.ID = int(id)
	if err := checkPairs(g.pairs); err != nil {
		return err
	}
	return b.checkRows(g.lo, g.hi)
}

// checkRows screens rows [lo, hi) of the columns: finite, non-negative
// times and finite values.
func (b *groupBatch) checkRows(lo, hi int) error {
	for r := lo; r < hi; r++ {
		if t := b.times[r]; math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("sample %d: bad time %v", r-lo, t)
		}
		if v := b.values[r]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sample %d: bad value %v", r-lo, v)
		}
	}
	return nil
}

// internLabels interns every group's pairs — the step that waits until
// the whole payload has validated.  A v4 label set is interned once, on
// its first use; a group that owns its pairs (a JSON record, a relabelled
// group) reuses an equal neighbour's handle, which is the common case.
func (b *groupBatch) internLabels() {
	for i := range b.groups {
		g := &b.groups[i]
		switch {
		case g.set != nil:
			if g.set.labels == (Labels{}) {
				g.set.labels = internLabels(g.set.pairs)
			}
			g.key.Labels = g.set.labels
		case i > 0 && slices.Equal(g.pairs, b.groups[i-1].pairs):
			g.key.Labels = b.groups[i-1].key.Labels
		default:
			g.key.Labels = internLabels(g.pairs)
		}
	}
}

// v4Decoder walks a payload.  The first error sticks — every read after
// it returns zero values — so callers check d.err once per entry.  The
// payload is held twice: as bytes for the bit-packed columns, and as one
// string copy that every table string is a substring of.
type v4Decoder struct {
	b   []byte
	s   string
	off int
	err error
}

func (d *v4Decoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, sz := binary.Uvarint(d.b[d.off:])
	if sz <= 0 {
		d.err = fmt.Errorf("truncated %s at offset %d", what, d.off)
		return 0
	}
	d.off += sz
	return v
}

// count reads a table's entry count, bounded by v4MaxEntries and by what
// the rest of the payload can hold at minSize bytes an entry.
func (d *v4Decoder) count(what string, minSize int) int {
	n := d.uvarint(what)
	if d.err == nil && (n > v4MaxEntries || n > uint64((len(d.b)-d.off)/minSize)) {
		d.err = fmt.Errorf("implausible %s %d", what, n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// ref reads a reference into a table of n entries.  After an error it
// returns 0, which may be out of range: check d.err before using it.
func (d *v4Decoder) ref(what string, n int) int {
	r := d.uvarint(what)
	if d.err == nil && r >= uint64(n) {
		d.err = fmt.Errorf("%s ref %d out of range (%d entries)", what, r, n)
	}
	if d.err != nil {
		return 0
	}
	return int(r)
}

// span reads a length prefix and returns the [from, to) it announces.
func (d *v4Decoder) span(what string) (from, to int) {
	n := d.uvarint(what)
	if d.err == nil && n > uint64(len(d.b)-d.off) {
		d.err = fmt.Errorf("%s of %d bytes overruns payload at offset %d", what, n, d.off)
	}
	if d.err != nil {
		return 0, 0
	}
	from, to = d.off, d.off+int(n)
	d.off = to
	return from, to
}

func (d *v4Decoder) column(what string) []byte {
	from, to := d.span(what)
	return d.b[from:to]
}

// v4String is one string-table entry and what its uses have checked of
// it, so each role's check runs once per payload.
type v4String struct {
	s      string
	scope  int8 // 1 + the Scope it names, once resolved
	metric bool // checked as a metric name
}

func (s *v4String) asScope() (Scope, error) {
	if s.scope == 0 {
		sc, err := ParseScope(s.s)
		if err != nil {
			return 0, err
		}
		s.scope = int8(sc) + 1
	}
	return Scope(s.scope - 1), nil
}

func (s *v4String) asMetric() (string, error) {
	if !s.metric {
		if err := checkMetric(s.s); err != nil {
			return "", err
		}
		s.metric = true
	}
	return s.s, nil
}

// decodeV4 parses and validates one v4 payload into b, all-or-nothing:
// any malformed table entry, group or row rejects the whole batch, with
// nothing interned.  The directory's row total is checked against the
// columns before they are allocated.  Table strings alias one copy of
// data; what outlives the batch (a new series' key, a new label set) is
// cloned where it is retained.  Groups without rows are dropped.
func decodeV4(data []byte, b *groupBatch) error {
	if len(data) < len(v4Magic) || string(data[:len(v4Magic)]) != v4Magic {
		return fmt.Errorf("not a v4 payload (want %q magic, have %q)", v4Magic, data[:min(len(data), len(v4Magic))])
	}
	d := &v4Decoder{b: data, s: string(data), off: len(v4Magic)}
	strs := make([]v4String, d.count("string count", 1))
	for i := range strs {
		from, to := d.span("string")
		strs[i].s = d.s[from:to]
	}
	b.sets = make([]wireSet, d.count("set count", 1))
	for i := range b.sets {
		if err := d.set(b, strs, &b.sets[i]); err != nil {
			return fmt.Errorf("label set %d: %w", i, err)
		}
	}
	nGroups := d.count("group count", 7) // a group is at least seven one-byte fields
	if d.err != nil {
		return d.err
	}
	b.groups = slices.Grow(b.groups, nGroups)
	starts := make([]int32, nGroups)
	maxRows, rows := min(8*len(data), math.MaxInt32), 0 // every row takes at least a bit of each column
	for gi := range nGroups {
		g, n, err := d.group(strs, b.sets)
		if err == nil && n > uint64(maxRows-rows) {
			err = fmt.Errorf("%d rows overrun what the payload can hold", n)
		}
		if err != nil {
			return fmt.Errorf("group %d: %w", gi, err)
		}
		starts[gi] = int32(rows)
		g.lo, g.hi = rows, rows+int(n)
		rows = g.hi
		b.groups = append(b.groups, g)
	}
	b.ident, b.starts = d.off, starts
	if err := d.columns(b, rows, starts); err != nil {
		return err
	}
	kept := b.groups[:0]
	for gi, g := range b.groups {
		if err := b.checkRows(g.lo, g.hi); err != nil {
			return fmt.Errorf("group %d: %w", gi, err)
		}
		if g.hi > g.lo {
			kept = append(kept, g)
		}
	}
	b.groups = kept
	return nil
}

// columns decodes the three columns that end a payload into b: rows
// entries each, in groups beginning at starts.
func (d *v4Decoder) columns(b *groupBatch, rows int, starts []int32) (err error) {
	timeCol, sentAtCol, valueCol := d.column("time column"), d.column("sent_at column"), d.column("value column")
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%d trailing bytes after the value column", len(d.b)-d.off)
	}
	for _, col := range [...][]byte{timeCol, sentAtCol, valueCol} {
		if !columnFits(col, rows) {
			return fmt.Errorf("directory announces %d rows, a %d-byte column cannot hold them", rows, len(col))
		}
	}
	cols := make([]float64, 0, 3*rows) // one allocation backs all three
	if b.times, err = decodeDeltaColumn(timeCol, rows, starts, cols[:0:rows]); err != nil {
		return fmt.Errorf("time: %w", err)
	}
	if b.sentAts, err = decodeDeltaColumn(sentAtCol, rows, starts, cols[rows:rows:2*rows]); err != nil {
		return fmt.Errorf("sent_at: %w", err)
	}
	if b.values, err = decodeXORColumn(valueCol, rows, starts, cols[2*rows:2*rows:3*rows]); err != nil {
		return fmt.Errorf("value: %w", err)
	}
	return nil
}

// set decodes and validates one label set-table entry onto b.pairs.
func (d *v4Decoder) set(b *groupBatch, strs []v4String, s *wireSet) error {
	n := d.uvarint("pair count")
	if d.err == nil && n > maxLabels {
		d.err = fmt.Errorf("monitor: %d labels exceed the limit of %d", n, maxLabels)
	}
	if d.err != nil {
		return d.err
	}
	first := len(b.pairs)
	b.pairs = slices.Grow(b.pairs, int(n))
	for range n {
		name, value := d.ref("label name", len(strs)), d.ref("label value", len(strs))
		if d.err != nil {
			return d.err
		}
		b.pairs = append(b.pairs, Label{Name: strs[name].s, Value: strs[value].s})
	}
	// Capacity-clipped: a later relabel appends to its own copy, never
	// over the next set's pairs.
	s.pairs = b.pairs[first:len(b.pairs):len(b.pairs)]
	return checkPairs(s.pairs)
}

// group decodes and validates one directory entry, returning it with
// its row count.
func (d *v4Decoder) group(strs []v4String, sets []wireSet) (g sampleGroup, rows uint64, err error) {
	d.ref("collector", len(strs)) // wire metadata the store does not key on
	source, metric, scope := d.ref("source", len(strs)), d.ref("metric", len(strs)), d.ref("scope", len(strs))
	id := d.uvarint("id")
	set := d.ref("label set", len(sets))
	rows = d.uvarint("row count")
	if d.err != nil {
		return g, 0, d.err
	}
	if err := checkID(id); err != nil {
		return g, 0, err
	}
	g.key = Key{Source: strs[source].s, ID: int(id)}
	if g.key.Metric, err = strs[metric].asMetric(); err != nil {
		return g, 0, err
	}
	if g.key.Scope, err = strs[scope].asScope(); err != nil {
		return g, 0, err
	}
	g.set = &sets[set]
	g.pairs = g.set.pairs
	return g, rows, nil
}

// DecodeV4Samples appends the samples of one v4 payload to dst, labels
// interned — the inverse of V4Encoder.Encode, used by the persist WAL's
// replay.  It validates exactly like POST /ingest (a bad payload appends
// nothing) and keeps identities verbatim.
func DecodeV4Samples(payload []byte, dst []Sample) ([]Sample, error) {
	dst, _, err := DecodeV4SamplesIdent(payload, dst)
	return dst, err
}

// DecodeV4SamplesIdent is DecodeV4Samples that also returns the length
// of the payload's identity section, magic through group directory: the
// prefix the columns of a WAL reference frame are decoded behind.
func DecodeV4SamplesIdent(payload []byte, dst []Sample) ([]Sample, int, error) {
	var b groupBatch
	if err := decodeV4(payload, &b); err != nil {
		return dst, 0, err
	}
	b.internLabels()
	return b.appendSamples(dst), b.ident, nil
}
