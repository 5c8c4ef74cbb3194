package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"likwid/internal/monitor"
)

// A snapshot file holds the store as it holds itself: each series'
// sealed blocks verbatim, so writing one decodes nothing and restoring
// one re-seals nothing.  It is the magic, then frames in the WAL's
// framing (a length and a CRC per frame): the keys, then one frame per
// series, in the keys' order.  The keys are a v4 wire payload of one
// zero point per series, whose string table, label sets and directory
// name them as a WAL frame would.  A file that is cut short, or holds
// more or fewer frames than keys, restores nothing.
//
//	snapshot := "LKS2" frame(keys) frame(series)*
//	series   := uvarint(compaction) uvarint(toff) uvarint(nBlocks) block*
//	            uvarint(headPoints) uvarint(len) bytes uvarint(nTiers) tier*
//	block    := f64(tmin) f64(tmax) uvarint(points) uvarint(len) bytes
//	tier     := f64(res) uvarint(nBuckets) bucket* (0 | 1 open)
//	bucket   := f64(start) uvarint(count) f64(min) f64(median) f64(max) f64(avg)
//	open     := f64(start) uvarint(count) f64(min) f64(max) f64(sum)
//	            f64(lastT) f64(lastV) uvarint(nMedians) f64*
//
// A block's bytes are its time and value columns, as the store seals
// them; the head's points use the same codec.  f64 is the little-endian
// bit pattern, so NaN, ±Inf and -0 come back bit for bit.
const snapMagic = "LKS2"

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendSeries appends one series frame's payload.
func appendSeries(b []byte, s *monitor.SealedState) []byte {
	b = binary.AppendUvarint(b, uint64(s.Compaction))
	b = binary.AppendUvarint(b, uint64(s.Toff))
	b = binary.AppendUvarint(b, uint64(len(s.Blocks)))
	for _, blk := range s.Blocks {
		b = appendF64(b, blk.Tmin)
		b = appendF64(b, blk.Tmax)
		b = binary.AppendUvarint(b, uint64(blk.N))
		b = binary.AppendUvarint(b, uint64(len(blk.Data)))
		b = append(b, blk.Data...)
	}
	b = binary.AppendUvarint(b, uint64(s.Head.N))
	b = binary.AppendUvarint(b, uint64(len(s.Head.Data)))
	b = append(b, s.Head.Data...)
	b = binary.AppendUvarint(b, uint64(len(s.Tiers)))
	for _, tier := range s.Tiers {
		b = appendF64(b, tier.Res)
		b = binary.AppendUvarint(b, uint64(len(tier.Buckets)))
		for _, bk := range tier.Buckets {
			b = appendF64(b, bk.Start)
			b = binary.AppendUvarint(b, uint64(bk.Count))
			for _, v := range [...]float64{bk.Min, bk.Median, bk.Max, bk.Avg} {
				b = appendF64(b, v)
			}
		}
		o := tier.Open
		if o == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = appendF64(b, o.Start)
		b = binary.AppendUvarint(b, uint64(o.Count))
		for _, v := range [...]float64{o.Min, o.Max, o.Sum, o.LastT, o.LastV} {
			b = appendF64(b, v)
		}
		b = binary.AppendUvarint(b, uint64(len(o.Medians)))
		for _, v := range o.Medians {
			b = appendF64(b, v)
		}
	}
	return b
}

// writeSnapshot streams st's series to path atomically: frame by frame
// into a temp file in the same directory, fsync it, rename it over the
// target, fsync the directory.  A crash at any step leaves either the
// old snapshot or the new one, never a torn file.
func writeSnapshot(path string, st *monitor.Store) (err error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = encodeSnapshot(f, st); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// encodeSnapshot writes st as a snapshot.  It holds one series at a
// time, so its memory follows the largest series, not the store.
func encodeSnapshot(f io.Writer, st *monitor.Store) error {
	w := bufio.NewWriterSize(f, 1<<16)
	var frame []byte
	put := func(payload func([]byte) []byte) error {
		frame = payload(append(frame[:0], make([]byte, walHeader)...))
		if err := sealFrame(frame); err != nil {
			return err
		}
		_, err := w.Write(frame)
		return err
	}
	keys := st.Keys()
	zeros := make([]monitor.Sample, len(keys))
	for i, k := range keys {
		zeros[i] = monitor.Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope, ID: k.ID, Labels: k.Labels}
	}
	var enc monitor.V4Encoder
	keyFrame, err := enc.Encode(nil, zeros)
	if err == nil {
		// A key the wire cannot carry (an empty metric, an id past int32)
		// would make a snapshot that no boot reads: write none instead.
		_, err = monitor.DecodeV4Samples(keyFrame, nil)
	}
	if err != nil {
		return fmt.Errorf("persist: the store's keys: %w", err)
	}
	if _, err := w.WriteString(snapMagic); err != nil {
		return err
	}
	if err := put(func(b []byte) []byte { return append(b, keyFrame...) }); err != nil {
		return err
	}
	series := 0
	if err := st.ExportSealed(keys, func(s *monitor.SealedState) error {
		series++
		return put(func(b []byte) []byte { return appendSeries(b, s) })
	}); err != nil {
		return err
	}
	if series != len(keys) {
		return fmt.Errorf("persist: %d of %d series exported", series, len(keys))
	}
	return w.Flush()
}

// readSnapshot reads a snapshot into states for Store.RestoreSealed; a
// missing file restores nothing.
func readSnapshot(path string) ([]monitor.SealedState, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	states, err := decodeSnapshot(f, info.Size())
	if err != nil {
		return nil, fmt.Errorf("persist: snapshot %s: %w", path, err)
	}
	return states, nil
}

// decodeSnapshot reads a snapshot of size bytes frame by frame, checking
// the framing and the keys as it goes.  A JSON snapshot of the format
// before this one is refused by name.
func decodeSnapshot(f io.Reader, size int64) ([]monitor.SealedState, error) {
	r := bufio.NewReaderSize(f, 1<<16)
	switch magic, _ := r.Peek(len(snapMagic)); {
	case len(magic) > 0 && magic[0] == '{':
		return nil, fmt.Errorf("a version-1 JSON snapshot, which this build does not read: move it aside to start with an empty history")
	case string(magic) != snapMagic:
		return nil, fmt.Errorf("not a snapshot (no %q magic)", snapMagic)
	}
	_, _ = r.Discard(len(snapMagic)) // peeked, so buffered: it cannot fail
	fr := frameReader{r: r, size: size - int64(len(snapMagic))}
	payload, ok := fr.next()
	if !ok {
		return nil, fmt.Errorf("no keys")
	}
	keys, err := monitor.DecodeV4Samples(payload, nil)
	if err != nil {
		return nil, fmt.Errorf("keys: %w", err)
	}
	states := make([]monitor.SealedState, len(keys))
	for i := range states {
		payload, ok := fr.next()
		if !ok {
			return nil, fmt.Errorf("cut short after %d of %d series", i, len(keys))
		}
		d := snapDecoder{b: payload}
		states[i] = d.series()
		states[i].Key = keys[i].Key()
		if err := d.end(); err != nil {
			return nil, fmt.Errorf("series %d: %w", i, err)
		}
	}
	if fr.good != fr.size {
		return nil, fmt.Errorf("%d bytes after the last series", fr.size-fr.good)
	}
	return states, nil
}

// snapDecoder walks one frame's payload.  The first error sticks: every
// read after it returns zero values, so callers check once per frame.
type snapDecoder struct {
	b   []byte
	err error
}

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *snapDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		d.b = nil
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an entry count that the rest of the payload can hold at
// minSize bytes an entry, so a hostile count allocates nothing.
func (d *snapDecoder) count(minSize int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/minSize) {
		d.fail("implausible count %d", n)
		return 0
	}
	return int(n)
}

// small reads a non-negative count or offset that must fit an int32.
func (d *snapDecoder) small() int {
	n := d.uvarint()
	if n > math.MaxInt32 {
		d.fail("implausible %d", n)
		return 0
	}
	return int(n)
}

func (d *snapDecoder) bytes(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail("%d bytes overrun the frame", n)
		d.b = nil
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

func (d *snapDecoder) f64() float64 {
	if b := d.bytes(8); len(b) == 8 {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// block reads a block's points and bytes, copied: the store keeps them.
func (d *snapDecoder) block() monitor.SealedBlock {
	n := d.small()
	return monitor.SealedBlock{N: n, Data: append([]byte(nil), d.bytes(d.uvarint())...)}
}

func (d *snapDecoder) end() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d bytes left over", len(d.b))
	}
	return d.err
}

// series reads one series frame.  Only the framing is checked here;
// Store.RestoreSealed checks the rest.
func (d *snapDecoder) series() monitor.SealedState {
	var s monitor.SealedState
	s.Compaction = monitor.Compaction(d.small())
	s.Toff = d.small()
	s.Blocks = make([]monitor.SealedBlock, d.count(18))
	for i := range s.Blocks {
		tmin, tmax := d.f64(), d.f64()
		s.Blocks[i] = d.block()
		s.Blocks[i].Tmin, s.Blocks[i].Tmax = tmin, tmax
	}
	s.Head = d.block()
	s.Tiers = make([]monitor.TierState, d.count(10))
	for i := range s.Tiers {
		t := &s.Tiers[i]
		t.Res = d.f64()
		t.Buckets = make([]monitor.Bucket, d.count(41))
		for j := range t.Buckets {
			b := &t.Buckets[j]
			b.Start, b.Res, b.Count = d.f64(), t.Res, d.small()
			b.Min, b.Median, b.Max, b.Avg = d.f64(), d.f64(), d.f64(), d.f64()
		}
		switch d.small() {
		case 0:
		case 1:
			o := &monitor.OpenBucketState{Start: d.f64(), Count: d.small()}
			o.Min, o.Max, o.Sum, o.LastT, o.LastV = d.f64(), d.f64(), d.f64(), d.f64(), d.f64()
			o.Medians = make([]float64, d.count(8))
			for j := range o.Medians {
				o.Medians[j] = d.f64()
			}
			t.Open = o
		default:
			d.fail("bad open-bucket flag")
		}
	}
	return s
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
