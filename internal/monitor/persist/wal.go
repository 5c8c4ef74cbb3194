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
// single writer goroutine takes everything queued, encodes it as one v4
// column-group payload (the wire codec), frames it with a CRC, and
// fsyncs when the queue runs dry: each drain is one group commit, so the
// fsync — and the frame and identity overhead — amortizes over the batch.
package persist

import (
	"bufio"
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
//	frame := u32le(len(payload)) u32le(crc32-IEEE(payload)) payload
//
// where payload is one v4 column-group batch (monitor.V4Encoder.Encode:
// empty collector, no sent_at stamps) holding every point the writer
// found queued at one swap, grouped per series.
const walHeader = 8

// wal owns the log file and the writer goroutine.  Record and
// RecordBatch (the monitor.Journal implementation) are safe for
// concurrent use; all file access happens on the writer goroutine or
// under mu (rotation).
type wal struct {
	// The journal queue.  Appenders copy points into pending under qmu,
	// at most limit (Options.WALBuffer) of them; the writer swaps it
	// against its own drained buffer.  Both grow to the bursts they see
	// and are then reused, so neither side allocates in steady state.
	qmu     sync.Mutex
	pending []monitor.Sample
	limit   int
	wake    chan struct{} // pending went non-empty; never blocks the sender
	done    chan struct{}
	wg      sync.WaitGroup

	mu sync.Mutex // guards f during rotation
	f  *os.File

	// Writer-goroutine state.
	drained []monitor.Sample
	enc     monitor.V4Encoder
	frame   []byte

	records atomic.Uint64 // points made durable
	dropped atomic.Uint64 // points lost: queue full, or a failed write
	fsyncs  atomic.Uint64

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
	w.RecordBatch(one[:])
}

// RecordBatch implements monitor.Journal: a non-blocking handoff that
// queues what fits and drops (and counts, per point) what does not.
func (w *wal) RecordBatch(samples []monitor.Sample) {
	w.qmu.Lock()
	wasEmpty := len(w.pending) == 0
	n := min(len(samples), w.limit-len(w.pending))
	w.pending = append(w.pending, samples[:n]...)
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

// drain writes everything queued — one frame per swap of the queue —
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
		w.qmu.Unlock()
		if len(w.drained) == 0 {
			break
		}
		if err := w.write(w.drained); err != nil {
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
func (w *wal) lost(points int, err error) {
	w.dropped.Add(uint64(points))
	if w.fail != nil {
		w.fail(err)
	}
}

// write appends samples to the file as one frame.
func (w *wal) write(samples []monitor.Sample) error {
	frame, err := w.enc.Encode(append(w.frame[:0], make([]byte, walHeader)...), samples)
	if err != nil {
		return err
	}
	w.frame = frame[:0]
	if err := sealFrame(frame); err != nil {
		return err
	}
	_, err = w.f.Write(frame)
	return err
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

// replayWAL streams a log file's frames into apply, in order, each
// decoded through the wire codec.  A partial or CRC-bad tail — the
// expected shape of a crash mid-write — stops the replay and truncates
// the file at the last whole frame, reporting the dropped byte count;
// corruption is a recovery event, not an error.  A whole frame whose
// payload is not a valid v4 batch (a JSON record left by the
// pre-columnar WAL) is reported to invalid and skipped.  A missing file
// replays nothing.
func replayWAL(path string, apply func([]monitor.Sample), invalid func()) (points int, truncated int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	fr := frameReader{r: bufio.NewReaderSize(f, 1<<16), size: st.Size()}
	var samples []monitor.Sample
	for {
		payload, ok := fr.next()
		if !ok {
			break // truncate here
		}
		if samples, err = monitor.DecodeV4Samples(payload, samples[:0]); err != nil {
			invalid()
			continue
		}
		apply(samples)
		points += len(samples)
	}
	if tail := st.Size() - fr.good; tail > 0 {
		if err := os.Truncate(path, fr.good); err != nil {
			return points, tail, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
		return points, tail, nil
	}
	return points, 0, nil
}

// instrument registers the WAL's self-metrics.  records_total and
// dropped_total count points, not frames; the frame encoder's shape
// cache counts under likwid_v4_shape_cache_total{cache="wal"}.
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
}
