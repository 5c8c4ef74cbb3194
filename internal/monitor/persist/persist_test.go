package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

func testStore() *monitor.Store {
	return monitor.NewStore(4, monitor.Tier{Resolution: 1, Capacity: 4})
}

func testKey() monitor.Key {
	labels, err := monitor.MakeLabels(map[string]string{"job": "lbm"})
	if err != nil {
		panic(err)
	}
	return monitor.Key{Source: "nodeA", Metric: "bw", Scope: monitor.ScopeNode, ID: 0, Labels: labels}
}

// waitDurable polls until the WAL writer has made n points durable —
// records_total counts a point only after its frame's fsync, so this
// bounds the test without hooks into the writer.
func waitDurable(t *testing.T, m *Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.wal.records.Load() >= uint64(n) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("WAL never reached %d durable points (now %d, dropped %d)",
		n, m.wal.records.Load(), m.wal.dropped.Load())
}

// sampleOf is a journaled point of key k.
func sampleOf(k monitor.Key, tm, v float64) monitor.Sample {
	return monitor.Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope, ID: k.ID, Labels: k.Labels, Time: tm, Value: v}
}

// appendFrame writes one CRC-framed payload onto a WAL file by hand.
func appendFrame(t *testing.T, path string, payload []byte) {
	t.Helper()
	var hdr [walHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(hdr[:], payload...)); err != nil {
		t.Fatal(err)
	}
}

// appendSamples frames samples the way the WAL writer does.
func appendSamples(t *testing.T, path string, samples ...monitor.Sample) {
	t.Helper()
	payload, err := new(monitor.V4Encoder).Encode(nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	appendFrame(t, path, payload)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestSnapshotRestoreRoundTrips(t *testing.T) {
	dir := t.TempDir()
	st := testStore()
	k := testKey()
	alert := monitor.Key{Metric: "alert/hot", Scope: monitor.ScopeNode, ID: 0}
	st.SetCompaction(alert, monitor.CompactLast)

	m, err := Open(dir, st, Options{Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		st.Append(k, monitor.Point{Time: float64(i) * 0.5, Value: float64(i)})
		st.Append(alert, monitor.Point{Time: float64(i) * 0.5, Value: float64(i % 2)})
	}
	if err := m.Close(); err != nil { // clean shutdown = final snapshot
		t.Fatal(err)
	}

	st2 := testStore()
	m2, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	// A clean shutdown leaves everything in the snapshot: nothing to replay.
	if got := m2.replayed.Load(); got != 0 {
		t.Errorf("clean restart replayed %d records, want 0", got)
	}
	for _, key := range []monitor.Key{k, alert} {
		want, got := st.Window(key, 0, -1), st2.Window(key, 0, -1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("restored Window(%v) = %v, want %v", key, got, want)
		}
		wb, gb := st.Buckets(key, 1, 0, -1), st2.Buckets(key, 1, 0, -1)
		if !reflect.DeepEqual(gb, wb) {
			t.Errorf("restored Buckets(%v) = %v, want %v", key, gb, wb)
		}
	}
}

func TestWALReplayAfterUncleanShutdown(t *testing.T) {
	dir := t.TempDir()
	st := testStore()
	k := testKey()
	m, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		st.Append(k, monitor.Point{Time: float64(i), Value: float64(i * 10)})
	}
	waitDurable(t, m, 6)
	// No Close: the process "crashes" here, leaving only the WAL behind.

	st2 := testStore()
	m2, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.replayed.Load(); got != 6 {
		t.Fatalf("replayed %d records, want 6", got)
	}
	want := st.Window(k, 0, -1)
	if got := st2.Window(k, 0, -1); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed Window = %v, want %v", got, want)
	}
	_ = m.wal // keep the crashed manager alive past the reopen
}

// TestWALReplayAfterPartialWrite is the torn-tail case: a crash mid
// fsync leaves a half-written frame.  Replay must keep every whole
// record, truncate the torn bytes (counted, not fatal) and keep the
// log usable for new appends.
func TestWALReplayAfterPartialWrite(t *testing.T) {
	dir := t.TempDir()
	st := testStore()
	k := testKey()
	m, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		st.Append(k, monitor.Point{Time: float64(i), Value: float64(i)})
	}
	waitDurable(t, m, 4)
	whole, err := os.Stat(m.walPath())
	if err != nil {
		t.Fatal(err)
	}

	// The crash: a frame header claiming more payload than was written.
	torn := []byte{0xff, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x'}
	f, err := os.OpenFile(m.walPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := testStore()
	m2, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.replayed.Load(); got != 4 {
		t.Fatalf("replayed %d records, want 4", got)
	}
	if got := m2.replayTruncBytes.Load(); got != uint64(len(torn)) {
		t.Fatalf("truncated %d bytes, want %d", got, len(torn))
	}
	if stat, err := os.Stat(m2.walPath()); err != nil || stat.Size() != whole.Size() {
		t.Fatalf("WAL not truncated to last whole record: %v bytes, want %d (err %v)", stat.Size(), whole.Size(), err)
	}
	if got := len(st2.Window(k, 0, -1)); got != 4 {
		t.Fatalf("restored %d points, want 4", got)
	}

	// The truncated log keeps working: append, crash again, replay again.
	st2.Append(k, monitor.Point{Time: 9, Value: 9})
	waitDurable(t, m2, 1)
	st3 := testStore()
	m3, err := Open(dir, st3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if got := len(st3.Window(k, 0, -1)); got != 5 {
		t.Fatalf("after second crash restored %d points, want 5", got)
	}
}

// TestReplaySkipsRecordsAlreadyInSnapshot pins the dedupe guard: a
// wal.prev surviving a crash between the snapshot rename and the
// rotated log's removal holds records the snapshot already contains —
// they must not be applied twice.
func TestReplaySkipsRecordsAlreadyInSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := testStore()
	k := testKey()
	m, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		st.Append(k, monitor.Point{Time: float64(i), Value: float64(i)})
	}
	if err := m.Close(); err != nil { // snapshot now holds times 1..3
		t.Fatal(err)
	}

	// The crash left a stale wal.prev duplicating snapshot contents, and
	// a wal.log with one duplicate and one genuinely new record.
	appendSamples(t, filepath.Join(dir, "wal.prev"), sampleOf(k, 2, 2), sampleOf(k, 3, 3))
	appendSamples(t, filepath.Join(dir, "wal.log"), sampleOf(k, 3, 3), sampleOf(k, 4, 4))

	st2 := testStore()
	m2, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.replaySkipped.Load(); got != 3 {
		t.Errorf("skipped %d duplicate records, want 3", got)
	}
	if got := m2.replayed.Load(); got != 1 {
		t.Errorf("replayed %d records, want 1", got)
	}
	want := []monitor.Point{{Time: 1, Value: 1}, {Time: 2, Value: 2}, {Time: 3, Value: 3}, {Time: 4, Value: 4}}
	if got := st2.Window(k, 0, -1); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored Window = %v, want %v", got, want)
	}
}

// TestReplayKeepsSameTimestampPoints is the replay-guard regression: the
// guard compares against the restored snapshot's newest time only, so
// points journaled after it survive a restart even when they share a
// timestamp with each other (an agent's static collectors read the clock
// either side of the counter collector's advance) — in one frame or
// across two — while the rotate-then-dump overlap is still deduped.
func TestReplayKeepsSameTimestampPoints(t *testing.T) {
	dir := t.TempDir()
	st := monitor.NewStore(16)
	k := testKey()
	fresh := monitor.Key{Metric: "topo/sockets", Scope: monitor.ScopeNode}
	m, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Append(k, monitor.Point{Time: 1, Value: 1})
	st.Append(k, monitor.Point{Time: 2, Value: 2})
	waitDurable(t, m, 2)                 // in the log the snapshot is about to rotate away, not in the next one
	if err := m.Snapshot(); err != nil { // snapshot holds times 1, 2
		t.Fatal(err)
	}
	st.Append(k, monitor.Point{Time: 3, Value: 30})
	st.Append(k, monitor.Point{Time: 3, Value: 31}) // same time, same frame or the next
	st.Append(fresh, monitor.Point{Time: 5, Value: 1})
	waitDurable(t, m, 5)
	st.Append(k, monitor.Point{Time: 3, Value: 32}) // and once more, surely in a later frame
	st.Append(fresh, monitor.Point{Time: 5, Value: 2})
	waitDurable(t, m, 7)
	// The overlap a crash between rotation and dump leaves: a wal.prev
	// repeating what the snapshot already holds.
	appendSamples(t, m.walPrevPath(), sampleOf(k, 1, 1), sampleOf(k, 2, 2))
	// No Close: crash.

	st2 := monitor.NewStore(16)
	m2, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := m2.replaySkipped.Load(); got != 2 {
		t.Errorf("skipped %d points, want the 2 of the overlap", got)
	}
	for _, key := range []monitor.Key{k, fresh} {
		want, got := st.Window(key, 0, -1), st2.Window(key, 0, -1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("recovered Window(%v) = %v, want %v", key, got, want)
		}
	}
	if got := len(st2.Window(k, 0, -1)); got != 5 {
		t.Errorf("recovered %d points of the same-time series, want 5", got)
	}
}

// TestReplayTornTailInsideMultiGroupFrame cuts the log in the middle of
// its second frame — a frame of several series groups: replay keeps the
// first frame whole, drops the torn one entirely (no partial group is
// ever applied) and truncates the file back to the frame boundary.
func TestReplayTornTailInsideMultiGroupFrame(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	a, b := testKey(), monitor.Key{Source: "nodeB", Metric: "bw", Scope: monitor.ScopeNode}
	appendSamples(t, path, sampleOf(a, 1, 10), sampleOf(b, 1, 11), sampleOf(a, 2, 20))
	firstFrame := fileSize(t, path)
	appendSamples(t, path, sampleOf(a, 3, 30), sampleOf(b, 2, 21), sampleOf(b, 3, 31))
	if err := os.Truncate(path, firstFrame+(fileSize(t, path)-firstFrame)/2); err != nil {
		t.Fatal(err)
	}
	torn := fileSize(t, path) - firstFrame

	st := monitor.NewStore(16)
	m, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.replayed.Load(); got != 3 {
		t.Errorf("replayed %d points, want the first frame's 3", got)
	}
	if got := m.replayTruncBytes.Load(); got != uint64(torn) {
		t.Errorf("truncated %d bytes, want %d", got, torn)
	}
	if got := fileSize(t, path); got != firstFrame {
		t.Errorf("WAL is %d bytes after recovery, want the first frame's %d", got, firstFrame)
	}
	if got, want := st.Window(a, 0, -1), []monitor.Point{{Time: 1, Value: 10}, {Time: 2, Value: 20}}; !reflect.DeepEqual(got, want) {
		t.Errorf("series a = %v, want %v", got, want)
	}
	if got, want := st.Window(b, 0, -1), []monitor.Point{{Time: 1, Value: 11}}; !reflect.DeepEqual(got, want) {
		t.Errorf("series b = %v, want %v", got, want)
	}
}

// TestReplayStopsAtBadCRC: a frame whose payload fails its checksum ends
// the replay — what follows it cannot be trusted to be in sequence — and
// the log is cut back to the last good frame.
func TestReplayStopsAtBadCRC(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	k := testKey()
	appendSamples(t, path, sampleOf(k, 1, 1))
	good := fileSize(t, path)
	appendSamples(t, path, sampleOf(k, 2, 2))
	appendSamples(t, path, sampleOf(k, 3, 3))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[good+walHeader+6] ^= 0x40 // one flipped bit inside frame two's payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st := monitor.NewStore(16)
	m, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := st.Window(k, 0, -1); !reflect.DeepEqual(got, []monitor.Point{{Time: 1, Value: 1}}) {
		t.Errorf("recovered %v, want only the point ahead of the corrupt frame", got)
	}
	if got := fileSize(t, path); got != good {
		t.Errorf("WAL is %d bytes after recovery, want %d (cut at the corrupt frame)", got, good)
	}
	if got := m.replayInvalid.Load(); got != 0 {
		t.Errorf("replay_invalid = %d: a CRC failure is a torn tail, not an invalid frame", got)
	}
}

// TestReplaySkipsFramesOfThePreColumnarWAL is the upgrade note: a
// wal.log left by an unclean stop of the previous version holds one
// CRC-valid JSON record per frame.  Each is counted invalid and skipped —
// not applied, not fatal, not treated as a torn tail — and v4 frames
// around them replay normally.
func TestReplaySkipsFramesOfThePreColumnarWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	k := testKey()
	old := `{"source":"nodeA","metric":"bw","scope":"node","id":0,"labels":{"job":"lbm"},"time":%d,"value":%d}`
	appendFrame(t, path, []byte(fmt.Sprintf(old, 1, 1)))
	appendFrame(t, path, []byte(fmt.Sprintf(old, 2, 2)))
	appendSamples(t, path, sampleOf(k, 3, 3))
	size := fileSize(t, path)

	st := monitor.NewStore(16)
	m, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.replayInvalid.Load(); got != 2 {
		t.Errorf("replay_invalid = %d, want the 2 JSON records", got)
	}
	if got := st.Window(k, 0, -1); !reflect.DeepEqual(got, []monitor.Point{{Time: 3, Value: 3}}) {
		t.Errorf("recovered %v, want only the v4 frame's point", got)
	}
	if got := fileSize(t, path); got != size {
		t.Errorf("WAL shrank from %d to %d bytes: skipped frames are whole, nothing to truncate", size, got)
	}
}

// TestReplaySkipsFramesOfTheRetiredV4Layout: a wal.log left by an
// unclean stop of a version writing the retired per-group v4 layout
// (magic "LKW4") holds CRC-valid frames the current decoder rejects.
// Such a frame in the middle of the log is counted invalid and skipped,
// and the frames after it still replay.
func TestReplaySkipsFramesOfTheRetiredV4Layout(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	k := testKey()
	appendSamples(t, path, sampleOf(k, 1, 1))
	// One sample of the retired layout: "LKW4", one group with its
	// identity and label pair inline, per-group columns led by raw words.
	old := append([]byte("LKW4"), 1)
	for _, s := range []string{"", "nodeA", "bw", "node"} {
		old = append(append(old, byte(len(s))), s...)
	}
	old = append(old, 0, 1, 3, 'j', 'o', 'b', 3, 'l', 'b', 'm', 1)
	for _, v := range []float64{2, 0, 2} { // time, sent_at, value
		old = binary.BigEndian.AppendUint64(append(old, 8), math.Float64bits(v))
	}
	appendFrame(t, path, old)
	appendSamples(t, path, sampleOf(k, 3, 3))

	st := monitor.NewStore(16)
	m, err := Open(dir, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got := m.replayInvalid.Load(); got != 1 {
		t.Errorf("replay_invalid = %d, want the 1 retired-layout frame", got)
	}
	if got, want := st.Window(k, 0, -1), []monitor.Point{{Time: 1, Value: 1}, {Time: 3, Value: 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("recovered %v, want %v: the frames around the retired one", got, want)
	}
}

// TestRecoveredStoreEqualsLive is the randomized differential: seeded
// rounds of mixed appends — deep batches (few series, many ticks), wide
// batches (many series, one tick), one-off Append and Series.Append
// calls, same-timestamp repeats — with snapshots in between, then a
// crash copy of the state directory and persist.Open on it.  The
// recovered store must equal the live one point for point, raw rings and
// tier buckets alike.  (One shape is left out because the time-based
// replay guard cannot tell it from the rotate-then-dump overlap: a
// series' first point after a snapshot repeating the timestamp of its
// last point before it.)
func TestRecoveredStoreEqualsLive(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			newStore := func() *monitor.Store {
				return monitor.NewStore(32, monitor.Tier{Resolution: 4, Capacity: 16})
			}
			dir := t.TempDir()
			live := newStore()
			m, err := Open(dir, live, Options{SnapshotInterval: time.Hour, WALBuffer: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			labels := []monitor.Labels{{}, testKey().Labels}
			keyOf := func(i int) monitor.Key {
				return monitor.Key{
					Source: fmt.Sprintf("node%d", i%5), Metric: fmt.Sprintf("metric_%d", i%7),
					Scope: monitor.ScopeThread, ID: i % 3, Labels: labels[i%2],
				}
			}
			clock := make(map[monitor.Key]float64) // per-series time, never going back
			sinceSnapshot := make(map[monitor.Key]bool)
			next := func(k monitor.Key) float64 {
				// One in eight repeats the previous timestamp, unless a
				// snapshot came between the two.
				if rng.Intn(8) > 0 || !sinceSnapshot[k] {
					clock[k]++
				}
				sinceSnapshot[k] = true
				return clock[k]
			}
			appended := 0
			for round := 0; round < 40; round++ {
				switch rng.Intn(5) {
				case 0: // deep: 3 series × up to 40 ticks, tick-major like a buffered agent
					base, ticks := rng.Intn(100), 1+rng.Intn(40)
					var b monitor.Batch
					for tick := 0; tick < ticks; tick++ {
						for s := 0; s < 3; s++ {
							k := keyOf(base + s)
							b.Samples = append(b.Samples, sampleOf(k, next(k), rng.Float64()))
						}
					}
					live.AppendBatch(b)
					appended += len(b.Samples)
				case 1: // wide: up to 60 series × one tick
					var b monitor.Batch
					for s, n := 0, 1+rng.Intn(60); s < n; s++ {
						k := keyOf(s)
						b.Samples = append(b.Samples, sampleOf(k, next(k), float64(rng.Intn(50))))
					}
					live.AppendBatch(b)
					appended += len(b.Samples)
				case 2: // one-off appends
					for i, n := 0, 1+rng.Intn(5); i < n; i++ {
						k := keyOf(rng.Intn(105))
						live.Append(k, monitor.Point{Time: next(k), Value: rng.NormFloat64()})
						appended++
					}
				case 3: // an interned handle, the receiver fan-in idiom
					k := keyOf(rng.Intn(105))
					h := live.Intern(k)
					for i, n := 0, 1+rng.Intn(10); i < n; i++ {
						h.Append(monitor.Point{Time: next(k), Value: float64(i)})
						appended++
					}
				case 4: // a snapshot mid-stream: rotate, dump, overlap
					if err := m.Snapshot(); err != nil {
						t.Fatal(err)
					}
					clear(sinceSnapshot)
				}
			}
			waitDurable(t, m, appended)
			if d := m.wal.dropped.Load(); d != 0 {
				t.Fatalf("WAL dropped %d points under a 64k buffer", d)
			}

			// The crash: copy the directory under the running manager.
			image := t.TempDir()
			for _, name := range []string{"snapshot.json", "wal.log", "wal.prev"} {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if os.IsNotExist(err) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(image, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			recovered := newStore()
			m2, err := Open(image, recovered, Options{SnapshotInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			defer m.Close()
			if got, want := recovered.Keys(), live.Keys(); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered %d series, live has %d", len(got), len(want))
			}
			for _, k := range live.Keys() {
				if got, want := recovered.Window(k, 0, -1), live.Window(k, 0, -1); !reflect.DeepEqual(got, want) {
					t.Fatalf("series %v: recovered window\n%v\nlive\n%v", k, got, want)
				}
				if got, want := recovered.Buckets(k, 4, 0, -1), live.Buckets(k, 4, 0, -1); !reflect.DeepEqual(got, want) {
					t.Fatalf("series %v: recovered buckets\n%v\nlive\n%v", k, got, want)
				}
			}
		})
	}
}

// TestWALAppendZeroAllocs pins the journal's hot path on the real WAL:
// a single journaled append allocates nothing, queue full or not.  The
// ring is filled first, so the pin measures the steady state (eviction),
// not the ring's one-time growth.
func TestWALAppendZeroAllocs(t *testing.T) {
	st := monitor.NewStore(1024)
	m, err := Open(t.TempDir(), st, Options{SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h := st.Intern(testKey())
	tm := 0.0
	for ; tm < 1024; tm++ {
		h.Append(monitor.Point{Time: tm, Value: 1})
	}
	if allocs := testing.AllocsPerRun(20000, func() {
		tm++
		h.Append(monitor.Point{Time: tm, Value: 1})
	}); allocs != 0 {
		t.Fatalf("journaled Series.Append allocates %.2f allocs/op, want 0", allocs)
	}
	// The writer fsyncs only once its queue stays empty, so it may still
	// be writing when the loop ends: wait until every append (one per
	// time 0..tm, 1024 skipped) is durable or counted as dropped.
	want := uint64(tm)
	deadline := time.Now().Add(5 * time.Second)
	for m.wal.records.Load()+m.wal.dropped.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := m.wal.records.Load() + m.wal.dropped.Load(); got != want {
		t.Fatalf("the WAL accounted for %d of the %d appends", got, want)
	}
}

// TestPeriodicSnapshotTruncatesWAL drives the background loop with a
// short interval: after a snapshot lands, the WAL starts over and the
// rotated generation is gone.
func TestPeriodicSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	st := testStore()
	k := testKey()
	m, err := Open(dir, st, Options{SnapshotInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		st.Append(k, monitor.Point{Time: float64(i), Value: float64(i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.snapshots.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if m.snapshots.Load() == 0 {
		t.Fatal("background snapshot never ran")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if stat, err := os.Stat(m.walPath()); err != nil || stat.Size() != 0 {
		t.Fatalf("WAL after snapshot+close = %v bytes, want 0 (err %v)", stat.Size(), err)
	}
	if _, err := os.Stat(m.walPrevPath()); !os.IsNotExist(err) {
		t.Fatalf("rotated WAL generation still present: %v", err)
	}
	st2 := testStore()
	m2, err := Open(dir, st2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := len(st2.Window(k, 0, -1)); got != 8 {
		t.Fatalf("restored %d points, want 8", got)
	}
}

// copyImage copies dir's durability files into a fresh directory — the
// state a crash at this instant would leave behind.
func copyImage(t *testing.T, dir string) string {
	t.Helper()
	image := t.TempDir()
	for _, name := range []string{"snapshot.json", "wal.log", "wal.prev"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return image
}

// TestFailedSnapshotsKeepTheRotatedWAL is the snapshot-retry case: a
// failed snapshot leaves wal.prev behind with records no snapshot holds,
// and the next snapshot must not rotate wal.log over it.  A directory
// at snapshot.json.tmp makes every snapshot write fail.
func TestFailedSnapshotsKeepTheRotatedWAL(t *testing.T) {
	dir := t.TempDir()
	st := testStore()
	k := testKey()
	m, err := Open(dir, st, Options{SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "snapshot.json.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		st.Append(k, monitor.Point{Time: float64(i), Value: float64(i)})
		waitDurable(t, m, i)
		if i < 3 {
			if err := m.Snapshot(); err == nil {
				t.Fatalf("snapshot %d succeeded over a directory", i)
			}
		}
	}
	recovered := testStore()
	m2, err := Open(copyImage(t, dir), recovered, Options{SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	want := []monitor.Point{{Time: 1, Value: 1}, {Time: 2, Value: 2}, {Time: 3, Value: 3}}
	if got := recovered.Window(k, 0, -1); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	// Once a snapshot lands, the overlap it shares with wal.log is
	// deduped: a clean restart still holds exactly the three points.
	if err := os.Remove(filepath.Join(dir, "snapshot.json.tmp")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	again := testStore()
	m3, err := Open(dir, again, Options{SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if got := again.Window(k, 0, -1); !reflect.DeepEqual(got, want) {
		t.Fatalf("after a clean close %v, want %v", got, want)
	}
}

// TestStoreRefusesKeysTheWALCannotCarry mixes keys the wire cannot carry
// (an empty metric, a negative id, an id past int32) with good ones,
// through every append path: the store drops and counts them, and every
// good point survives Close → Open.
func TestStoreRefusesKeysTheWALCannotCarry(t *testing.T) {
	dir := t.TempDir()
	st := testStore()
	m, err := Open(dir, st, Options{SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	good := []monitor.Key{testKey(), {Metric: "bw", Scope: monitor.ScopeSocket, ID: 1}}
	bad := []monitor.Key{{Metric: "", Scope: monitor.ScopeNode}, {Metric: " ", Scope: monitor.ScopeNode},
		{Metric: "bw", Scope: monitor.ScopeNode, ID: -1}, {Metric: "bw", Scope: monitor.ScopeNode, ID: 1 << 40}}
	refused := 0
	for i := 1; i <= 10; i++ {
		tm := float64(i)
		var b monitor.Batch
		for j, k := range good {
			b.Samples = append(b.Samples, sampleOf(k, tm, float64(j)))
			b.Samples = append(b.Samples, sampleOf(bad[(i+j)%len(bad)], tm, -1))
		}
		st.AppendBatch(b)
		st.Append(bad[i%len(bad)], monitor.Point{Time: tm, Value: -1})
		st.Intern(bad[(i+1)%len(bad)]).Append(monitor.Point{Time: tm, Value: -1})
		refused += len(good) + 2
		if i == 5 {
			if err := m.Snapshot(); err != nil {
				t.Fatalf("snapshot with refused keys: %v", err)
			}
		}
	}
	if got := st.Stats().Refused; got != uint64(refused) {
		t.Errorf("refused %d samples, want %d", got, refused)
	}
	if m.wal.dropped.Load() != 0 {
		t.Errorf("WAL dropped %d points", m.wal.dropped.Load())
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := testStore()
	m2, err := Open(dir, recovered, Options{SnapshotInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got, want := recovered.Keys(), st.Keys(); !reflect.DeepEqual(got, want) || len(got) != len(good) {
		t.Fatalf("recovered keys %v, want %v", got, want)
	}
	for _, k := range good {
		if got, want := recovered.Window(k, 0, -1), st.Window(k, 0, -1); !reflect.DeepEqual(got, want) {
			t.Errorf("series %v: recovered %v, want %v", k, got, want)
		}
	}
}
