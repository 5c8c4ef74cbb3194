// Package persist gives the monitor store crash durability: a
// write-ahead log of appends plus periodic full-state snapshots, so an
// agent or receiver restarted after a crash restores its raw rings and
// retention tiers instead of starting cold.
//
// The division of labor follows the store's own hot/cold split.  The
// append path stays allocation-free: the store's Journal hook copies
// points into a bounded queue under a short mutex and never blocks —
// when the queue is full the points are dropped and counted, trading
// bounded durability loss for an unbounded-latency-free ingest path.  A
// single writer goroutine takes everything queued, encodes each
// journaled batch as one v4 column-group payload (the wire codec),
// frames it with a CRC, writes the swap's frames with one write(2) and
// fsyncs when the queue runs dry: each drain is one group commit, so the
// fsync amortizes over the batches.
//
// The identity a batch carries — string table, label sets, group
// directory — repeats with its shape: a receiver journals each agent's
// push with the same series in the same order, tick after tick.  So the
// log states a shape's identity once per file.  The first batch of a
// shape is a definition frame, a whole v4 payload; each later batch of
// that shape in the same file is a reference frame: the definition's
// offset and the batch's own columns.  The writer's table of definitions
// holds only frames already in the current file (or earlier in the same
// write); it forgets them all when the file is swapped or reopened,
// when a write or fsync fails, and when the encoder's shape cache
// resets.  The reader keeps its own table per file, of the definitions
// it has read, and skips a reference to any other offset as invalid.  A
// binary that predates reference frames counts them invalid on replay
// and skips them; after a clean stop the final snapshot holds every
// point, so only a crash's log loses their points to a downgrade.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// A WAL file is a sequence of frames:
//
//	frame      := u32le(len(payload)) u32le(crc32-IEEE(payload)) payload
//	payload    := definition | reference
//	definition := one v4 batch ("LKD4" ...; monitor.V4Encoder.Encode:
//	              empty collector, no sent_at stamps)
//	reference  := "LKR4" uvarint(offset) col(times) col(sentAts) col(values)
//
// Each frame holds one journaled batch (a run of single-point Records
// is one batch), grouped per series.  A reference frame's offset is
// where the definition frame of its shape begins in the same file; its
// columns decode behind that definition's identity section, magic
// through group directory.  An identity section is at least 14 bytes,
// so a reference's magic and offset fit in the room it leaves.
const (
	walHeader   = 8
	walRefMagic = "LKR4"
)

// Frame kinds, indexing the frame counters.
const (
	definition = iota
	reference
)

var frameKinds = [...]string{definition: "definition", reference: "reference"}

// wal owns the log file and the writer goroutine.  Record and
// RecordBatch (the monitor.Journal implementation) are safe for
// concurrent use; all file access happens on the writer goroutine or
// under mu (rotation).
type wal struct {
	// The journal queue.  Appenders copy points into pending under qmu,
	// at most limit (Options.WALBuffer) of them, and ends marks where
	// each journaled batch ends in it; the writer swaps both against its
	// own drained buffers.  They grow to the bursts they see and are then
	// reused, so neither side allocates in steady state.
	qmu        sync.Mutex
	pending    []monitor.Sample
	ends       []int
	lastRecord bool // pending's last batch is a run of Records, which the next Record extends
	limit      int
	wake       chan struct{} // pending went non-empty; never blocks the sender
	done       chan struct{}
	wg         sync.WaitGroup

	mu sync.Mutex // guards f during rotation
	f  *os.File

	// Writer-goroutine state.
	drained     []monitor.Sample
	drainedEnds []int
	enc         monitor.V4Encoder
	frame       []byte
	defs        map[monitor.V4ShapeID]int64 // the definition frame of each shape in f, by offset
	resets      uint64                      // the encoder's resets defs was filled under
	size        int64                       // f's size, once sized
	sized       bool

	records atomic.Uint64 // points made durable
	dropped atomic.Uint64 // points lost: queue full, or a failed write
	fsyncs  atomic.Uint64
	frames  [2]atomic.Uint64 // frames written, by kind

	// observeFsync, when set, receives each fsync's duration in seconds.
	observeFsync func(float64)
	// fail reports asynchronous write errors (disk full, file gone).
	fail func(err error)
}

func openWAL(path string, buffer int) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &wal{
		limit: buffer,
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		f:     f,
	}
	w.wg.Add(1)
	go w.run()
	return w, nil
}

// Record implements monitor.Journal for single appends.
func (w *wal) Record(k monitor.Key, p monitor.Point) {
	one := [1]monitor.Sample{{
		Source: k.Source, Metric: k.Metric, Scope: k.Scope, ID: k.ID,
		Labels: k.Labels, Time: p.Time, Value: p.Value,
	}}
	w.enqueue(one[:], true)
}

// RecordBatch implements monitor.Journal: the batch becomes one frame.
func (w *wal) RecordBatch(samples []monitor.Sample) { w.enqueue(samples, false) }

// enqueue is a non-blocking handoff that queues what fits of samples as
// one batch — or, for a Record after a Record, as the rest of the last
// one — and drops (and counts, per point) what does not.
func (w *wal) enqueue(samples []monitor.Sample, record bool) {
	w.qmu.Lock()
	wasEmpty := len(w.pending) == 0
	n := min(len(samples), w.limit-len(w.pending))
	if n > 0 {
		w.pending = append(w.pending, samples[:n]...)
		if record && w.lastRecord {
			w.ends[len(w.ends)-1] = len(w.pending)
		} else {
			w.ends = append(w.ends, len(w.pending))
		}
		w.lastRecord = record
	}
	w.qmu.Unlock()
	if n < len(samples) {
		w.dropped.Add(uint64(len(samples) - n))
	}
	if wasEmpty && n > 0 {
		select {
		case w.wake <- struct{}{}:
		default: // a wakeup is already on its way
		}
	}
}

// run commits whatever is queued each time the queue goes non-empty.
func (w *wal) run() {
	defer w.wg.Done()
	for {
		select {
		case <-w.wake:
			w.drain()
		case <-w.done:
			w.drain() // what raced the shutdown
			return
		}
	}
}

// drain writes everything queued — one write(2) per swap of the queue —
// and, once the queue stays empty, makes it all durable with one fsync:
// group commit on idle.  Under a burst the writer keeps swapping and
// writing (microseconds per frame); the millisecond fsync waits.
func (w *wal) drain() {
	w.mu.Lock()
	defer w.mu.Unlock()
	written := 0 // points written since the last fsync
	for {
		w.qmu.Lock()
		w.pending, w.drained = w.drained[:0], w.pending
		w.ends, w.drainedEnds = w.drainedEnds[:0], w.ends
		w.lastRecord = false
		w.qmu.Unlock()
		if len(w.drained) == 0 {
			break
		}
		if err := w.write(w.drained, w.drainedEnds); err != nil {
			w.lost(len(w.drained), err)
			continue
		}
		written += len(w.drained)
	}
	if written == 0 {
		return
	}
	if err := w.sync(); err != nil {
		w.lost(written, err)
		return
	}
	// Counted once durable: records_total is what a crash keeps.
	w.records.Add(uint64(written))
}

// lost counts points a failed write or fsync could not make durable with
// the drops, so records + dropped still adds up to what was journaled.
// What the file holds is unknown from here, so no later frame refers
// back into it.
func (w *wal) lost(points int, err error) {
	w.forget()
	w.dropped.Add(uint64(points))
	if w.fail != nil {
		w.fail(err)
	}
}

// forget drops the writer's definitions and the file size it knows.
func (w *wal) forget() {
	clear(w.defs)
	w.sized = false
}

// write appends the batches of samples — batch i ends at ends[i] — to
// the file as one frame each, with one write(2).  A batch whose shape has
// a definition in this file, earlier in it or earlier in this write, is
// framed as a reference to it; a reference never precedes its
// definition, so any prefix of the write that holds one holds the other.
func (w *wal) write(samples []monitor.Sample, ends []int) error {
	if !w.sized {
		st, err := w.f.Stat()
		if err != nil {
			return err
		}
		w.size, w.sized = st.Size(), true
	}
	if w.defs == nil {
		w.defs = make(map[monitor.V4ShapeID]int64)
	}
	buf, lo := w.frame[:0], 0
	var kinds [2]uint64
	for _, hi := range ends {
		at := len(buf)
		frame, id, cols, err := w.enc.EncodeShape(append(buf, make([]byte, walHeader)...), samples[lo:hi])
		if err != nil {
			return err
		}
		lo = hi
		if id.Resets != w.resets {
			clear(w.defs)
			w.resets = id.Resets
		}
		kind := definition
		if off, ok := w.defs[id]; ok {
			frame, kind = referTo(frame, at+walHeader, cols, off), reference
		} else if id.Index >= 0 {
			w.defs[id] = w.size + int64(at)
		}
		if err := sealFrame(frame[at:]); err != nil {
			return err
		}
		buf = frame
		kinds[kind]++
	}
	w.frame = buf[:0]
	if _, err := w.f.Write(buf); err != nil {
		return err
	}
	w.size += int64(len(buf))
	for k, n := range kinds {
		w.frames[k].Add(n)
	}
	return nil
}

// referTo turns the definition payload at the end of frame — starting at
// p, its columns at cols — into a reference to the definition frame at
// off: the magic and offset take the identity section's place.
func referTo(frame []byte, p, cols int, off int64) []byte {
	var ref [len(walRefMagic) + binary.MaxVarintLen64]byte
	n := copy(frame[p:cols], binary.AppendUvarint(append(ref[:0], walRefMagic...), uint64(off)))
	return append(frame[:p+n], frame[cols:]...)
}

// sealFrame fills in the header that frame's first walHeader bytes hold
// room for: the length and CRC of the payload after them.
func sealFrame(frame []byte) error {
	payload := frame[walHeader:]
	if len(payload) > math.MaxUint32 {
		return fmt.Errorf("persist: a %d-byte payload is more than a frame can announce", len(payload))
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return nil
}

// frameReader reads a file's frames in order.  next stops at the first
// frame that is torn, announces more than the file holds, or fails its
// CRC; good is then the length of the whole frames before it.
type frameReader struct {
	r       io.Reader
	size    int64 // bytes of the file the frames occupy
	good    int64 // bytes of whole frames read so far
	payload []byte
}

// next returns the next frame's payload, valid until the following call.
func (fr *frameReader) next() ([]byte, bool) {
	var hdr [walHeader]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, false // EOF or a torn header
	}
	size := int64(binary.LittleEndian.Uint32(hdr[0:4]))
	if size > fr.size-fr.good-walHeader {
		return nil, false // announces more than the file holds: torn
	}
	if int64(cap(fr.payload)) < size {
		fr.payload = make([]byte, size)
	}
	payload := fr.payload[:size]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, false
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, false
	}
	fr.good += walHeader + size
	return payload, true
}

func (w *wal) sync() error {
	start := time.Now()
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.fsyncs.Add(1)
	if w.observeFsync != nil {
		w.observeFsync(time.Since(start).Seconds())
	}
	return nil
}

// rotate syncs and closes the current log and swaps in a fresh file at
// newPath, renaming the old one to prevPath.  Called with appends still
// flowing: the writer blocks on mu for the swap's duration only.
func (w *wal) rotate(prevPath, newPath string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.forget()
	if err := w.f.Sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := os.Rename(w.f.Name(), prevPath); err != nil {
		return err
	}
	f, err := os.OpenFile(newPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	return nil
}

// stop halts the writer goroutine after it commits everything queued.
// The file stays open: a final rotation may follow.
func (w *wal) stop() {
	close(w.done)
	w.wg.Wait()
}

// closeFile syncs and closes the log file; call after stop.
func (w *wal) closeFile() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// WALStats is what ScanWAL found in one log file.
type WALStats struct {
	Points int    // samples in the valid frames
	Frames [2]int // valid frames: definitions, references
	// Invalid counts whole frames skipped: a payload that is no v4 batch
	// (a frame of a retired layout), or a reference to an offset where
	// no valid definition frame was read.
	Invalid int
	// Good is the length of the whole frames, where a torn tail begins;
	// Size is the file's.
	Good, Size int64
}

// ScanWAL reads the log file at path, read-only, and calls fn with the
// samples of each valid whole frame in order (valid until fn returns).
// It stops at the first frame that is torn, overruns the file or fails
// its CRC.  A reference frame decodes against the identity section of a
// definition frame read earlier in the same file; the table of them is
// the scan's own and dropped at its end.  A missing file scans as empty.
func ScanWAL(path string, fn func([]monitor.Sample)) (WALStats, error) {
	var ws WALStats
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return ws, nil
	}
	if err != nil {
		return ws, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return ws, err
	}
	ws.Size = st.Size()
	fr := frameReader{r: bufio.NewReaderSize(f, 1<<16), size: ws.Size}
	defs := make(map[int64][]byte) // each valid definition's identity section, by frame offset
	var samples []monitor.Sample
	var joined []byte
	for {
		at := fr.good
		payload, ok := fr.next()
		if !ok {
			break
		}
		kind, valid, ident := definition, false, 0
		if cols, isRef := bytes.CutPrefix(payload, []byte(walRefMagic)); isRef {
			kind = reference
			if off, n := binary.Uvarint(cols); n > 0 && off <= math.MaxInt64 && defs[int64(off)] != nil {
				joined = append(append(joined[:0], defs[int64(off)]...), cols[n:]...)
				samples, err = monitor.DecodeV4Samples(joined, samples[:0])
				valid = err == nil
			}
		} else if samples, ident, err = monitor.DecodeV4SamplesIdent(payload, samples[:0]); err == nil {
			defs[at], valid = bytes.Clone(payload[:ident]), true
		}
		if !valid {
			ws.Invalid++
			continue
		}
		ws.Frames[kind]++
		ws.Points += len(samples)
		fn(samples)
	}
	ws.Good = fr.good
	return ws, nil
}

// replayWAL streams a log file's frames into apply, in order (ScanWAL).
// A partial or CRC-bad tail — the expected shape of a crash mid-write —
// stops the replay, and the file is truncated at the last whole frame;
// corruption is a recovery event, not an error.  A whole frame that
// does not decode (a JSON record left by the pre-columnar WAL) is
// counted invalid and skipped.
func replayWAL(path string, apply func([]monitor.Sample)) (WALStats, error) {
	ws, err := ScanWAL(path, apply)
	if err == nil && ws.Good < ws.Size {
		if err = os.Truncate(path, ws.Good); err != nil {
			err = fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
	}
	return ws, err
}

// instrument registers the WAL's self-metrics.  records_total and
// dropped_total count points, frames_total{kind} the frames written; the
// frame encoder's shape cache counts under
// likwid_v4_shape_cache_total{cache="wal"}.
func (w *wal) instrument(reg *telemetry.Registry) {
	w.enc.Instrument(reg, "wal")
	reg.CounterFunc("likwid_wal_records_total", func() float64 {
		return float64(w.records.Load())
	})
	reg.CounterFunc("likwid_wal_dropped_total", func() float64 {
		return float64(w.dropped.Load())
	})
	reg.CounterFunc("likwid_wal_fsyncs_total", func() float64 {
		return float64(w.fsyncs.Load())
	})
	for k, kind := range frameKinds {
		reg.CounterFunc("likwid_wal_frames_total", func() float64 {
			return float64(w.frames[k].Load())
		}, "kind", kind)
	}
}
