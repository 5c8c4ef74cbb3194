package persist

import (
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// Options tunes a Manager.  The zero value is usable: one-minute
// snapshots, a 16384-point WAL buffer, no logging, no telemetry.
type Options struct {
	// SnapshotInterval is the period of the background ring/tier
	// snapshot (and WAL truncation).  <= 0 means the one-minute default.
	SnapshotInterval time.Duration
	// WALBuffer is the journal queue depth in points: what may wait
	// while the WAL writer commits the previous drain (so it also bounds
	// one frame).  Points beyond it are dropped (and counted) rather than
	// blocking appends.  <= 0 means 16384 — four full push-sink flushes:
	// the queue has to hold what arrives during one fsync, and v4 ingest
	// lands a 4096-sample flush in well under a millisecond.
	WALBuffer int
	// Logger receives recovery and failure events; nil stays silent.
	Logger *slog.Logger
	// Registry, when set, receives the persistence self-metrics (WAL
	// fsync latency and counters, snapshot duration, replay counters).
	// It must be passed at Open so the WAL writer observes from its
	// first fsync without a start-up race.
	Registry *telemetry.Registry
}

// Manager owns one store's durability state directory:
//
//	snapshot.json — the last full ring/tier snapshot (atomic rename);
//	                binary, see snapshot.go — the name is the benchmark's
//	wal.log       — appends since that snapshot, one CRC-framed frame per
//	                journaled batch: a v4 batch (a definition frame) the
//	                first time a batch shape appears in the file, its
//	                columns and a reference to that frame after that
//	wal.prev      — the pre-rotation log, present only mid-snapshot
//
// Each log file is self-contained: its reference frames name definition
// frames inside it, so the writer forgets its definitions at every
// rotation and reopen, and the replay reads each file with a table of
// its own.
//
// Open restores snapshot + WAL into the store and installs the journal;
// a background loop then snapshots every SnapshotInterval, truncating
// the WAL each time (rotate first, dump second, so nothing falls
// between — the overlap is deduped on the next replay instead).  A
// snapshot streams the store's sealed blocks series by series, as the
// store holds them, so it costs memory for the largest series, not for
// the store; restore checks the whole file before installing the blocks
// verbatim.  Open on an empty directory creates only wal.log.  Close
// snapshots synchronously and leaves no goroutine behind.
type Manager struct {
	dir   string
	store *monitor.Store
	opts  Options
	wal   *wal

	stop     chan struct{}
	wg       sync.WaitGroup
	closedMu sync.Mutex
	closed   bool

	snapshots    atomic.Uint64
	snapDuration atomic.Uint64 // float64 bits, seconds of the last snapshot

	replayed         atomic.Uint64
	replaySkipped    atomic.Uint64
	replayInvalid    atomic.Uint64
	replayTruncBytes atomic.Uint64
	replayFrames     [2]atomic.Uint64 // by kind
}

func (m *Manager) snapshotPath() string { return filepath.Join(m.dir, "snapshot.json") }
func (m *Manager) walPath() string      { return filepath.Join(m.dir, "wal.log") }
func (m *Manager) walPrevPath() string  { return filepath.Join(m.dir, "wal.prev") }

// Open restores dir's snapshot and WAL into st, installs the append
// journal, and starts the WAL writer and the snapshot loop.  It must
// run before st serves traffic: replayed points bypass the journal, so
// anything appended concurrently could be interleaved into the replay.
func Open(dir string, st *monitor.Store, opts Options) (*Manager, error) {
	if opts.SnapshotInterval <= 0 {
		opts.SnapshotInterval = time.Minute
	}
	if opts.WALBuffer <= 0 {
		opts.WALBuffer = 16384
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{dir: dir, store: st, opts: opts, stop: make(chan struct{})}

	// Restore: snapshot first, then both WAL generations in write order.
	// A snapshot is read whole and checked before any of it is installed.
	states, err := readSnapshot(m.snapshotPath())
	if err != nil {
		return nil, err
	}
	if err := st.RestoreSealed(states); err != nil {
		return nil, fmt.Errorf("persist: snapshot %s: %w", m.snapshotPath(), err)
	}

	// The replay dedupe guard: a point at or before its series' newest
	// snapshotted time is already inside the snapshot (the rotate-then-dump
	// overlap, or a wal.prev left by a crash after the snapshot rename).
	// The bar never moves with the replay: journaled points are distinct
	// appends, so two of them sharing a timestamp both come back.
	snapNewest := make(map[monitor.Key]float64, len(states))
	for i := range states {
		if states[i].Len() > 0 {
			snapNewest[states[i].Key] = states[i].Last.Time
		}
	}
	states = nil // the store holds the blocks now
	apply := func(samples []monitor.Sample) {
		kept := samples[:0]
		for _, s := range samples {
			if bar, ok := snapNewest[s.Key()]; ok && s.Time <= bar {
				continue
			}
			kept = append(kept, s)
		}
		m.replaySkipped.Add(uint64(len(samples) - len(kept)))
		m.replayed.Add(uint64(len(kept)))
		st.AppendBatch(monitor.Batch{Collector: "wal", Samples: kept})
	}
	for _, path := range []string{m.walPrevPath(), m.walPath()} {
		ws, err := replayWAL(path, apply)
		if err != nil {
			return nil, fmt.Errorf("persist: replaying %s: %w", path, err)
		}
		truncated := ws.Size - ws.Good
		m.replayInvalid.Add(uint64(ws.Invalid))
		m.replayTruncBytes.Add(uint64(truncated))
		for k, n := range ws.Frames {
			m.replayFrames[k].Add(uint64(n))
		}
		if (ws.Points > 0 || truncated > 0) && opts.Logger != nil {
			opts.Logger.Info("replayed write-ahead log",
				"path", path, "points", ws.Points, "truncated_bytes", truncated)
		}
	}

	// Journal from here on.  The fsync observer is wired before the
	// writer goroutine starts, so telemetry sees the first commit.
	w, err := openWAL(m.walPath(), opts.WALBuffer)
	if err != nil {
		return nil, err
	}
	m.wal = w
	if opts.Logger != nil {
		w.fail = func(err error) { opts.Logger.Error("WAL write failed", "err", err) }
	}
	if reg := opts.Registry; reg != nil {
		h := reg.Histogram("likwid_wal_fsync_seconds",
			[]float64{1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1})
		w.observeFsync = h.Observe
		m.instrument(reg)
	}
	st.SetJournal(w)

	m.wg.Add(1)
	go m.loop()
	return m, nil
}

func (m *Manager) loop() {
	defer m.wg.Done()
	t := time.NewTicker(m.opts.SnapshotInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := m.Snapshot(); err != nil && m.opts.Logger != nil {
				m.opts.Logger.Error("snapshot failed", "err", err)
			}
		case <-m.stop:
			return
		}
	}
}

// Snapshot rotates the WAL, dumps the store and atomically replaces the
// on-disk snapshot, then discards the rotated log — its records are all
// inside the dump.  Appends keep flowing throughout; records landing
// between the rotation and the dump exist in both the new WAL and the
// snapshot, which the next boot's replay guard dedupes.  A wal.prev
// still present holds records no snapshot has (a failed snapshot's
// rotation, or a crash's), so the WAL is not rotated over it: this dump
// covers both logs, and the records it shares with wal.log are deduped
// the same way.
func (m *Manager) Snapshot() error {
	start := time.Now()
	if _, err := os.Stat(m.walPrevPath()); os.IsNotExist(err) {
		if err := m.wal.rotate(m.walPrevPath(), m.walPath()); err != nil {
			return fmt.Errorf("persist: rotating WAL: %w", err)
		}
	} else if err != nil {
		return fmt.Errorf("persist: rotating WAL: %w", err)
	}
	if err := writeSnapshot(m.snapshotPath(), m.store); err != nil {
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := os.Remove(m.walPrevPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: removing rotated WAL: %w", err)
	}
	m.snapshots.Add(1)
	m.snapDuration.Store(math.Float64bits(time.Since(start).Seconds()))
	return nil
}

// Close detaches the journal, takes a final snapshot (leaving an empty
// WAL, so the next boot restores without replay) and stops the writer.
// Call it after appends have stopped — after the scheduler and ingest
// paths have shut down.
func (m *Manager) Close() error {
	m.closedMu.Lock()
	if m.closed {
		m.closedMu.Unlock()
		return nil
	}
	m.closed = true
	m.closedMu.Unlock()

	m.store.SetJournal(nil)
	close(m.stop)
	m.wg.Wait()
	// Drain the writer before dumping: a record still queued during the
	// rotation would otherwise land in the fresh WAL as a duplicate of
	// what the snapshot is about to capture.
	m.wal.stop()
	snapErr := m.Snapshot()
	if err := m.wal.closeFile(); err != nil {
		return err
	}
	return snapErr
}

// instrument registers the manager's self-metrics alongside the WAL's.
func (m *Manager) instrument(reg *telemetry.Registry) {
	m.wal.instrument(reg)
	reg.CounterFunc("likwid_snapshots_total", func() float64 {
		return float64(m.snapshots.Load())
	})
	reg.GaugeFunc("likwid_snapshot_duration_seconds", func() float64 {
		return math.Float64frombits(m.snapDuration.Load())
	})
	reg.CounterFunc("likwid_replay_records_total", func() float64 {
		return float64(m.replayed.Load())
	})
	reg.CounterFunc("likwid_replay_skipped_total", func() float64 {
		return float64(m.replaySkipped.Load())
	})
	reg.CounterFunc("likwid_replay_invalid_total", func() float64 {
		return float64(m.replayInvalid.Load())
	})
	reg.CounterFunc("likwid_replay_truncated_bytes_total", func() float64 {
		return float64(m.replayTruncBytes.Load())
	})
	for k, kind := range frameKinds {
		reg.CounterFunc("likwid_replay_frames_total", func() float64 {
			return float64(m.replayFrames[k].Load())
		}, "kind", kind)
	}
}
