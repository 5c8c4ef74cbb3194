package monitor

// The v4 wire format: a binary columnar batch encoding, content-negotiated
// on POST /ingest alongside the JSON-lines schema via the Content-Type
// "application/x-likwid-v4", and the frame payload of the persist WAL.
//
// A batch is grouped into per-series column groups — all samples sharing
// one (collector, source, metric, scope, id, labels) identity — so the
// per-sample cost is three columns, not a repeated JSON object:
//
//	payload := "LKW4" uvarint(groupCount) group*
//	group   := str(collector) str(source) str(metric) str(scope)
//	           uvarint(id)
//	           uvarint(labelCount) (str(name) str(value))*   // sorted by name
//	           uvarint(sampleCount)
//	           col(times) col(sentAts) col(values)
//	str     := uvarint(len) bytes
//	col     := uvarint(len) bytes
//
// The time and sent_at columns are delta-of-delta codes over the int64
// reinterpretation of each float64's bit pattern (Gorilla-style
// prefix-coded zigzag fields, two's-complement wrap): lossless for every
// float64, and because the bit patterns of a regularly-sampled monotone
// series have near-constant deltas within a binade, the second
// difference is usually zero — one bit per sample, and sent_at
// (constant per flush) is one bit always.
// The value column is the classic Gorilla XOR bitstream (Pelkonen et
// al., VLDB 2015): 1 bit for a repeated value, a reused
// leading/trailing-zero window for slowly-moving ones.
//
// Both directions work on the store's own types: the encoder groups
// []Sample by the interned Key; the decoder produces a groupBatch whose
// identity strings are substrings of one copy of the payload, so a group
// costs no allocations of its own and nothing is interned until the
// whole payload has validated.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// V4ContentType is the Content-Type negotiating the v4 binary columnar
// batch format on POST /ingest.
const V4ContentType = "application/x-likwid-v4"

// v4Magic leads every v4 payload; a JSON-lines body posted with the v4
// Content-Type fails here, loudly.
const v4Magic = "LKW4"

// v4 sanity caps: counts are validated against these (and the payload
// size) before any allocation.
const (
	v4MaxGroups          = 1 << 20
	v4MaxSamplesPerGroup = 1 << 24
)

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
type bitReader struct {
	b     []byte
	pos   uint // bit cursor
	short bool
}

// readBit is readBits(1) without the word load: steady columns are one
// bit per entry.
func (r *bitReader) readBit() uint64 {
	if r.short = r.short || r.pos >= uint(len(r.b))*8; r.short {
		return 0
	}
	bit := uint64(r.b[r.pos>>3]>>(7-r.pos&7)) & 1
	r.pos++
	return bit
}

// readBits reads an nbits-wide field (at most 64) with one word load.
func (r *bitReader) readBits(nbits uint) uint64 {
	if r.short = r.short || r.pos+nbits > uint(len(r.b))*8; r.short || nbits == 0 {
		return 0
	}
	i, off := int(r.pos>>3), r.pos&7
	r.pos += nbits
	var w uint64
	if i+8 <= len(r.b) {
		w = binary.BigEndian.Uint64(r.b[i:])
	} else {
		for j, c := range r.b[i:] {
			w |= uint64(c) << (56 - 8*uint(j))
		}
	}
	w = w << off >> (64 - nbits)
	if spill := int(off+nbits) - 64; spill > 0 { // into a ninth byte (in range: checked above)
		w |= uint64(r.b[i+8]) >> (8 - spill)
	}
	return w
}

// done reports how a column decode ended: short, or with more than the
// final byte's padding left over.
func (r *bitReader) done(what string) error {
	if r.short {
		return fmt.Errorf("truncated %s column", what)
	}
	if rest := uint(len(r.b))*8 - r.pos; rest >= 8 {
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

// appendDeltaColumn appends a length-prefixed delta-of-delta column over
// the int64 reinterpretation of each value's bit pattern.  Wrapping
// int64 arithmetic makes the round trip exact for every input, including
// NaN and infinities (the ingest validator rejects those later, not the
// codec).  The first entry is 64 raw bits; every later entry is the
// second difference under a Gorilla-style prefix code, so a regular
// series (second difference zero) costs one bit per sample:
//
//	'0'                 dod == 0
//	'10'    + 7 bits    zigzag(dod) < 2^7
//	'110'   + 12 bits   zigzag(dod) < 2^12
//	'1110'  + 20 bits   zigzag(dod) < 2^20
//	'11110' + 32 bits   zigzag(dod) < 2^32
//	'11111' + 64 bits   everything else
func appendDeltaColumn(dst []byte, vals []float64) []byte {
	at := len(dst)
	w := bitWriter{b: append(dst, 0)}
	var prev, prevDelta int64
	for i, v := range vals {
		b := int64(math.Float64bits(v))
		if i == 0 {
			w.writeBits(uint64(b), 64)
			prev = b
			continue
		}
		delta := b - prev
		prev = b
		dod := delta - prevDelta
		prevDelta = delta
		z := uint64(dod)<<1 ^ uint64(dod>>63) // zigzag
		class := uint(0)                      // number of leading 1s in the prefix
		for z>>dodWidths[class] != 0 && class < 5 {
			class++
		}
		if class < 5 {
			w.writeBits((1<<class-1)<<1, class+1) // class 1s, then a 0
		} else {
			w.writeBits(0b11111, 5)
		}
		w.writeBits(z, dodWidths[class])
	}
	return closeColumn(w.finish(), at)
}

// columnFits reports whether col can hold n entries at all (64 bits for
// the first, at least one for every other), so a hostile sample count is
// rejected before the columns grow to it.
func columnFits(col []byte, n int) bool {
	return n == 0 || uint64(n)+63 <= uint64(len(col))*8
}

// decodeDeltaColumn appends the n entries of a delta column to dst.
func decodeDeltaColumn(col []byte, n int, dst []float64) ([]float64, error) {
	if !columnFits(col, n) {
		return dst, fmt.Errorf("truncated delta column: %d bytes cannot hold %d entries", len(col), n)
	}
	r := bitReader{b: col}
	var prev, prevDelta int64
	for i := 0; i < n && !r.short; i++ {
		if i == 0 {
			prev = int64(r.readBits(64))
		} else {
			class := 0
			for class < 5 && r.readBit() == 1 {
				class++
			}
			z := r.readBits(dodWidths[class])
			prevDelta += int64(z>>1) ^ -int64(z&1) // unzigzag
			prev += prevDelta
		}
		dst = append(dst, math.Float64frombits(uint64(prev)))
	}
	return dst, r.done("delta")
}

// appendXORColumn appends a length-prefixed Gorilla value column: the
// first value verbatim (64 bits); then per value either a 0 bit
// (unchanged), or 1+0 and the XOR's meaningful bits inside the previous
// leading/trailing-zero window, or 1+1 and an explicit 5-bit
// leading-zero count, 6-bit significant-bit count minus one, and the
// bits themselves.
func appendXORColumn(dst []byte, vals []float64) []byte {
	at := len(dst)
	w := bitWriter{b: append(dst, 0)}
	var prev uint64
	prevLead, prevSig := uint(0), uint(0) // prevSig==0: no window yet
	for i, v := range vals {
		b := math.Float64bits(v)
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
		if prevSig > 0 && lead >= prevLead && 64-prevLead-prevSig <= trail {
			// The XOR fits the previous window: reuse it.
			w.writeBits(0b10, 2)
			w.writeBits(xor>>(64-prevLead-prevSig), prevSig)
			continue
		}
		w.writeBits(0b11<<11|uint64(lead)<<6|uint64(sig-1), 2+5+6)
		w.writeBits(xor>>trail, sig)
		prevLead, prevSig = lead, sig
	}
	return closeColumn(w.finish(), at)
}

// decodeXORColumn appends the n entries of a value column to dst.
func decodeXORColumn(col []byte, n int, dst []float64) ([]float64, error) {
	if !columnFits(col, n) {
		return dst, fmt.Errorf("truncated value column: %d bytes cannot hold %d entries", len(col), n)
	}
	r := bitReader{b: col}
	var prev uint64
	prevLead, prevSig := uint(0), uint(0)
	for i := 0; i < n && !r.short; i++ {
		switch {
		case i == 0:
			prev = r.readBits(64)
		case r.readBit() == 0: // unchanged
		default:
			if r.readBit() == 1 { // a new window
				window := r.readBits(5 + 6)
				prevLead, prevSig = uint(window>>6), uint(window&63)+1
				if prevLead+prevSig > 64 {
					return dst, fmt.Errorf("value column entry %d: window %d+%d exceeds 64 bits", i, prevLead, prevSig)
				}
			} else if prevSig == 0 && !r.short {
				return dst, fmt.Errorf("value column entry %d reuses a window before one was set", i)
			}
			prev ^= r.readBits(prevSig) << (64 - prevLead - prevSig)
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
	key      v4GroupKey
	start, n int32 // the group's run in V4Encoder.order
}

// V4Encoder renders sample batches as v4 payloads, reusing its grouping
// scratch across calls: a warm encoder allocates nothing beyond what dst
// needs to grow.  The zero value is ready; not safe for concurrent use.
type V4Encoder struct {
	index  map[v4GroupKey]int32
	groups []v4Group
	gid    []int32 // group of each sample
	order  []int32 // sample indexes, group-major, arrival order within a group

	times, sentAts, values []float64 // the columns of the group being packed
}

// Encode appends the v4 payload of samples to dst with an empty collector
// and no sent_at stamps — the form the persist WAL frames.  Groups come
// in first-appearance order, a group's samples in arrival order, so the
// encoding is deterministic; DecodeV4Samples is its inverse.
func (e *V4Encoder) Encode(dst []byte, samples []Sample) ([]byte, error) {
	return e.encode(dst, samples, nil)
}

// encode is Encode with per-sample wire metadata (index-aligned with
// samples; nil means all zero) — the push sink's flush.
func (e *V4Encoder) encode(dst []byte, samples []Sample, meta []sampleMeta) ([]byte, error) {
	if e.index == nil {
		e.index = make(map[v4GroupKey]int32)
	}
	clear(e.index)
	e.groups = e.groups[:0]
	e.gid = slices.Grow(e.gid[:0], len(samples))[:len(samples)]
	e.order = slices.Grow(e.order[:0], len(samples))[:len(samples)]
	for i := range samples {
		if samples[i].ID < 0 {
			return dst, fmt.Errorf("monitor: v4 encode: sample %d: negative id %d", i, samples[i].ID)
		}
		gk := v4GroupKey{key: samples[i].Key()}
		if meta != nil {
			gk.collector = meta[i].collector
		}
		var g int32
		if i > 0 && e.groups[e.gid[i-1]].key == gk {
			g = e.gid[i-1] // group-major input: skip the hash
		} else if known, ok := e.index[gk]; ok {
			g = known
		} else {
			g = int32(len(e.groups))
			e.index[gk] = g
			e.groups = append(e.groups, v4Group{key: gk})
		}
		e.groups[g].n++
		e.gid[i] = g
	}
	// Counting sort: each group's samples become one run of order.
	var next int32
	for gi := range e.groups {
		g := &e.groups[gi]
		g.start, next, g.n = next, next+g.n, 0
	}
	for i, gi := range e.gid {
		g := &e.groups[gi]
		e.order[g.start+g.n] = int32(i)
		g.n++
	}

	dst = append(dst, v4Magic...)
	dst = binary.AppendUvarint(dst, uint64(len(e.groups)))
	for _, g := range e.groups {
		k := g.key.key
		dst = appendString(dst, g.key.collector)
		dst = appendString(dst, k.Source)
		dst = appendString(dst, k.Metric)
		dst = appendString(dst, k.Scope.String())
		dst = binary.AppendUvarint(dst, uint64(k.ID))
		dst = binary.AppendUvarint(dst, uint64(k.Labels.Len()))
		if k.Labels.set != nil {
			for _, p := range k.Labels.set.pairs { // interned: already sorted by name
				dst = appendString(dst, p.Name)
				dst = appendString(dst, p.Value)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(g.n))
		e.times, e.sentAts, e.values = e.times[:0], e.sentAts[:0], e.values[:0]
		for _, i := range e.order[g.start : g.start+g.n] {
			e.times, e.values = append(e.times, samples[i].Time), append(e.values, samples[i].Value)
			if meta != nil {
				e.sentAts = append(e.sentAts, meta[i].sentAt)
			} else {
				e.sentAts = append(e.sentAts, 0)
			}
		}
		dst = appendDeltaColumn(dst, e.times)
		dst = appendDeltaColumn(dst, e.sentAts)
		dst = appendXORColumn(dst, e.values)
	}
	return dst, nil
}

// appendString is the length-prefixed string of the group header.
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
	pairs  []Label // validated, sorted by name, duplicate-free; not interned
	lo, hi int     // rows [lo, hi) of the batch columns
	series *series
}

// groupBatch is one decoded ingest payload — what decodeV4 and
// decodeIngest both produce and every ingest stage runs over: identity
// and label pairs once per group, the columns in shared backing arrays.
// Decoding validates everything and interns nothing, so a rejected
// payload leaves no residue anywhere.
type groupBatch struct {
	groups  []sampleGroup
	times   []float64
	sentAts []float64 // 0 where the record carried no stamp
	values  []float64
	pairs   []Label // backing array of the groups' pairs
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

// sortPairs orders a group's label pairs by name and rejects duplicates.
func sortPairs(pairs []Label) error {
	slices.SortFunc(pairs, cmpLabelName)
	for i := 1; i < len(pairs); i++ {
		if pairs[i].Name == pairs[i-1].Name {
			return fmt.Errorf("duplicate label %q", pairs[i].Name)
		}
	}
	return nil
}

// internLabels interns every group's pairs — the step that waits until
// the whole payload has validated.  Consecutive groups almost always
// share one set, so an equal neighbour reuses the handle.
func (b *groupBatch) internLabels() {
	for i := range b.groups {
		g := &b.groups[i]
		if i > 0 && slices.Equal(g.pairs, b.groups[i-1].pairs) {
			g.key.Labels = b.groups[i-1].key.Labels
			continue
		}
		g.key.Labels = internLabels(g.pairs)
	}
}

// v4Decoder walks a payload.  The first error sticks — every read after
// it returns zero values — so callers check d.err once per group.  The
// payload is held twice: as bytes for the bit-packed columns, and as one
// string copy that every identity field is a substring of.
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

func (d *v4Decoder) str(what string) string {
	from, to := d.span(what)
	return d.s[from:to]
}

func (d *v4Decoder) column(what string) []byte {
	from, to := d.span(what)
	return d.b[from:to]
}

// decodeV4 parses and validates one v4 payload into b, all-or-nothing:
// any malformed group rejects the whole batch, with nothing interned.
// Identity strings alias one copy of data; what outlives the batch (a
// new series' key, a new label set) is cloned where it is retained.
// Groups without samples are dropped.
func decodeV4(data []byte, b *groupBatch) error {
	if len(data) < len(v4Magic) || string(data[:len(v4Magic)]) != v4Magic {
		return fmt.Errorf("not a v4 payload (missing %q magic)", v4Magic)
	}
	d := &v4Decoder{b: data, s: string(data), off: len(v4Magic)}
	groupCount := d.uvarint("group count")
	if d.err != nil {
		return d.err
	}
	if groupCount > v4MaxGroups || groupCount > uint64(len(data)) {
		return fmt.Errorf("implausible group count %d", groupCount)
	}
	d.reserve(b, groupCount)
	for gi := uint64(0); gi < groupCount; gi++ {
		if err := d.group(b); err != nil {
			return fmt.Errorf("group %d: %w", gi, err)
		}
	}
	if d.off != len(data) {
		return fmt.Errorf("%d trailing bytes after last group", len(data)-d.off)
	}
	return nil
}

// reserve sums the counts the groups announce in one structural pass (no
// validation: the decode proper reports what is wrong) and sizes b for
// them, so the columns are allocated once instead of growing — and being
// copied — group by group.  The payload bounds what hostile counts can
// reserve: a group takes ten bytes, a label pair two, an entry one bit.
func (d *v4Decoder) reserve(b *groupBatch, groupCount uint64) {
	start := d.off
	var pairs, rows uint64
	for gi := uint64(0); gi < groupCount && d.err == nil; gi++ {
		for range 4 { // collector, source, metric, scope
			d.span("field")
		}
		d.uvarint("id")
		labels := min(d.uvarint("label count"), maxLabels)
		for range 2 * labels {
			d.span("label")
		}
		samples := d.uvarint("sample count")
		for range 3 {
			d.span("column")
		}
		if d.err == nil {
			pairs, rows = pairs+labels, rows+min(samples, v4MaxSamplesPerGroup)
		}
	}
	d.off, d.err = start, nil
	size := uint64(len(d.b))
	b.groups = slices.Grow(b.groups, int(min(groupCount, size/10)))
	b.pairs = slices.Grow(b.pairs, int(min(pairs, size/2)))
	b.times = slices.Grow(b.times, int(min(rows, size*8)))
	b.sentAts = slices.Grow(b.sentAts, int(min(rows, size*8)))
	b.values = slices.Grow(b.values, int(min(rows, size*8)))
}

// group decodes and validates one column group onto b.
func (d *v4Decoder) group(b *groupBatch) error {
	// Collector is wire metadata the store does not key on: dropped.
	d.str("collector")
	g := sampleGroup{key: Key{Source: d.str("source"), Metric: d.str("metric")}}
	scopeName := d.str("scope")
	id := d.uvarint("id")
	labelCount := d.uvarint("label count")
	if d.err == nil && labelCount > maxLabels {
		d.err = fmt.Errorf("monitor: %d labels exceed the limit of %d", labelCount, maxLabels)
	}
	first := len(b.pairs)
	for li := uint64(0); li < labelCount && d.err == nil; li++ {
		b.pairs = append(b.pairs, Label{Name: d.str("label name"), Value: d.str("label value")})
	}
	sampleCount := d.uvarint("sample count")
	if d.err == nil && sampleCount > v4MaxSamplesPerGroup {
		d.err = fmt.Errorf("implausible sample count %d", sampleCount)
	}
	timeCol, sentAtCol, valueCol := d.column("time column"), d.column("sent_at column"), d.column("value column")
	if d.err != nil {
		return d.err
	}
	// Capacity-clipped: a later relabel appends to its own copy, never
	// over the next group's pairs.
	g.pairs = b.pairs[first:len(b.pairs):len(b.pairs)]
	var err error
	n := int(sampleCount)
	g.lo = len(b.times)
	if b.times, err = decodeDeltaColumn(timeCol, n, b.times); err != nil {
		return fmt.Errorf("time: %w", err)
	}
	if b.sentAts, err = decodeDeltaColumn(sentAtCol, n, b.sentAts); err != nil {
		return fmt.Errorf("sent_at: %w", err)
	}
	if b.values, err = decodeXORColumn(valueCol, n, b.values); err != nil {
		return fmt.Errorf("value: %w", err)
	}
	g.hi = len(b.times)
	if err := b.check(&g, scopeName, int64(id)); err != nil || n == 0 {
		return err
	}
	b.groups = append(b.groups, g)
	return nil
}

// check is the record validation both decoders share: it resolves the
// group's scope and id, orders its label pairs, and screens identity,
// labels and every row.
func (b *groupBatch) check(g *sampleGroup, scopeName string, id int64) (err error) {
	if g.key.Scope, err = ParseScope(scopeName); err != nil {
		return err
	}
	if strings.TrimSpace(g.key.Metric) == "" {
		return fmt.Errorf("empty metric")
	}
	if id < 0 || id > math.MaxInt32 {
		return fmt.Errorf("bad id %d", id)
	}
	g.key.ID = int(id)
	if len(g.pairs) > maxLabels {
		return fmt.Errorf("monitor: %d labels exceed the limit of %d", len(g.pairs), maxLabels)
	}
	for _, p := range g.pairs {
		if err := checkLabel(p.Name, p.Value); err != nil {
			return err
		}
	}
	if err := sortPairs(g.pairs); err != nil {
		return err
	}
	for r := g.lo; r < g.hi; r++ {
		if t := b.times[r]; math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("sample %d: bad time %v", r-g.lo, t)
		}
		if v := b.values[r]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sample %d: bad value %v", r-g.lo, v)
		}
	}
	return nil
}

// DecodeV4Samples appends the samples of one v4 payload to dst, labels
// interned — the inverse of V4Encoder.Encode, used by the persist WAL's
// replay.  It validates exactly like POST /ingest (a bad payload appends
// nothing) but keeps identities verbatim: the v1 SOURCE/metric shim is an
// ingest stage, not part of the codec.
func DecodeV4Samples(payload []byte, dst []Sample) ([]Sample, error) {
	var b groupBatch
	if err := decodeV4(payload, &b); err != nil {
		return dst, err
	}
	b.internLabels()
	return b.appendSamples(dst), nil
}
