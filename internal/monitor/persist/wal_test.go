package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"likwid/internal/monitor"
)

// fixtureBatches are the journaled batches testdata/wal_lkd4.log holds,
// one LKD4 frame each, as the writer framed them before reference frames
// existed: shape A (three labelled series, one point each) three times,
// shape B (two series, two points each) and shape C (one point) once.
func fixtureBatches(t testing.TB) [][]monitor.Sample {
	t.Helper()
	labels, err := monitor.MakeLabels(map[string]string{"cluster": "emmy", "job": "lbm"})
	if err != nil {
		t.Fatal(err)
	}
	wide := func(tm float64) []monitor.Sample {
		var out []monitor.Sample
		for i, m := range []string{"bw", "flops", "bw"} {
			out = append(out, monitor.Sample{Source: "agent0", Metric: m, Scope: monitor.ScopeSocket,
				ID: i, Labels: labels, Time: tm, Value: 100*tm + float64(i)})
		}
		return out
	}
	deep := []monitor.Sample{
		{Source: "agent1", Metric: "ipc", Scope: monitor.ScopeThread, ID: 3, Time: 1.5, Value: 1.25},
		{Source: "agent1", Metric: "ipc", Scope: monitor.ScopeThread, ID: 3, Time: 1.75, Value: 1.5},
		{Metric: "temp", Scope: monitor.ScopeNode, Time: 1.5, Value: 41},
		{Metric: "temp", Scope: monitor.ScopeNode, Time: 1.75, Value: 42},
	}
	one := []monitor.Sample{{Source: "agent0", Metric: "bw", Scope: monitor.ScopeNode, Time: 2, Value: -1}}
	return [][]monitor.Sample{wide(1), deep, wide(2), one, wide(3)}
}

// testWAL opens a writer on path without its goroutine: the test drains.
func testWAL(t *testing.T, path string) *wal {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return &wal{limit: 1 << 20, wake: make(chan struct{}, 1), f: f}
}

// journal records batches and drains them: all in one drain, or one
// drain per batch.
func journal(w *wal, oneDrain bool, batches ...[]monitor.Sample) {
	for _, b := range batches {
		w.RecordBatch(b)
		if !oneDrain {
			w.drain()
		}
	}
	w.drain()
}

// scanBatches is every valid frame of a log file, as batches.
func scanBatches(t *testing.T, path string) ([][]monitor.Sample, WALStats) {
	t.Helper()
	var out [][]monitor.Sample
	ws, err := ScanWAL(path, func(s []monitor.Sample) { out = append(out, append([]monitor.Sample(nil), s...)) })
	if err != nil {
		t.Fatal(err)
	}
	return out, ws
}

// splitFrames cuts a log file into its whole frames, headers included.
func splitFrames(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for len(data) >= walHeader {
		n := walHeader + int(binary.LittleEndian.Uint32(data))
		out, data = append(out, data[:n]), data[n:]
	}
	return out
}

// TestWALFixtureReplays: a log of LKD4 frames only, written before
// reference frames existed, replays whole, and the writer still frames
// each first sighting of a shape byte for byte as it did — only the
// repeats (frames 2 and 4) became references.
func TestWALFixtureReplays(t *testing.T) {
	want := fixtureBatches(t)
	fixture := filepath.Join("testdata", "wal_lkd4.log")
	got, ws := scanBatches(t, fixture)
	if ws.Frames != [2]int{5, 0} || ws.Invalid != 0 || ws.Good != ws.Size {
		t.Fatalf("fixture scan = %+v, want 5 whole definition frames", ws)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fixture replayed %v, want %v", got, want)
	}

	path := filepath.Join(t.TempDir(), "wal.log")
	journal(testWAL(t, path), true, want...)
	old, fresh := splitFrames(t, fixture), splitFrames(t, path)
	if len(fresh) != len(old) {
		t.Fatalf("wrote %d frames, want %d", len(fresh), len(old))
	}
	for i := range fresh {
		isRef := bytes.HasPrefix(fresh[i][walHeader:], []byte(walRefMagic))
		if isRef != (i == 2 || i == 4) {
			t.Errorf("frame %d: reference %v, want only frames 2 and 4 to be references", i, isRef)
		}
		if !isRef && !bytes.Equal(fresh[i], old[i]) {
			t.Errorf("definition frame %d differs from the fixture's:\n got %x\nwant %x", i, fresh[i], old[i])
		}
	}
	if got, ws := scanBatches(t, path); !reflect.DeepEqual(got, want) || ws.Frames != [2]int{3, 2} {
		t.Errorf("new log replayed %v (%+v), want %v in 3 definitions and 2 references", got, ws, want)
	}
}

// TestWALFramesFollowBatches: each journaled batch is its own frame, so
// the log does not depend on how the writer's drains fall — and a run of
// single-point Records is one batch.
func TestWALFramesFollowBatches(t *testing.T) {
	dir := t.TempDir()
	batches := fixtureBatches(t)
	together, apart := filepath.Join(dir, "together.log"), filepath.Join(dir, "apart.log")
	journal(testWAL(t, together), true, batches...)
	journal(testWAL(t, apart), false, batches...)
	a, err := os.ReadFile(together)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(apart)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("one drain wrote %d bytes, one drain per batch %d: the logs differ", len(a), len(b))
	}

	path := filepath.Join(dir, "records.log")
	w := testWAL(t, path)
	k := testKey()
	w.Record(k, monitor.Point{Time: 1, Value: 1})
	w.Record(k, monitor.Point{Time: 2, Value: 2})
	w.RecordBatch(batches[3])
	w.Record(k, monitor.Point{Time: 3, Value: 3})
	w.drain()
	want := [][]monitor.Sample{{sampleOf(k, 1, 1), sampleOf(k, 2, 2)}, batches[3], {sampleOf(k, 3, 3)}}
	if got, _ := scanBatches(t, path); !reflect.DeepEqual(got, want) {
		t.Errorf("frames %v, want %v", got, want)
	}
}

// TestWALReferencesRoundTrip journals the fixture's batches around every
// event that must make the writer forget its definitions — a rotation, a
// failed write, a reopen of an existing log, a reset of the encoder's
// shape cache — and replays each file: every batch whose write succeeded
// comes back, in order, no frame is invalid, and after each event the
// first batch of every shape is a definition again.
func TestWALReferencesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path, prev := filepath.Join(dir, "wal.log"), filepath.Join(dir, "wal.prev")
	batches := fixtureBatches(t)
	var want [][]monitor.Sample
	w := testWAL(t, path)
	journal(w, false, batches...)
	if err := w.rotate(prev, path); err != nil {
		t.Fatal(err)
	}
	journal(w, true, batches...)
	want = append(want, batches...)

	// A batch of a shape new to the file, whose write fails: a later batch
	// of that shape must not refer to it.
	fresh := []monitor.Sample{sampleOf(testKey(), 5, 5)}
	good := w.f
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	w.f = ro
	journal(w, true, batches[0], fresh)
	w.f = good
	ro.Close()
	if d := w.dropped.Load(); d != uint64(len(batches[0])+len(fresh)) {
		t.Fatalf("the failed write dropped %d points, want %d", d, len(batches[0])+len(fresh))
	}
	journal(w, false, append([][]monitor.Sample{fresh}, batches...)...)
	want = append(append(want, fresh), batches...)

	// A restart: a new writer appends to the existing log.
	w = testWAL(t, path)
	journal(w, true, batches...)
	want = append(want, batches...)

	// Batches of distinct shapes that together outgrow the encoder's
	// shape cache (4 MiB, about 45k rows of distinct series): the third
	// resets it, and the shape ids start over.
	for i := range 3 {
		big := make([]monitor.Sample, 16000)
		for j := range big {
			big[j] = monitor.Sample{Source: fmt.Sprintf("big%d", i), Metric: "m", Scope: monitor.ScopeThread, ID: j, Time: 1, Value: float64(j)}
		}
		journal(w, true, big)
		want = append(want, big)
	}
	if w.resets == 0 {
		t.Fatal("the encoder's shape cache never reset")
	}
	journal(w, false, batches...)
	want = append(want, batches...)

	if got, ws := scanBatches(t, prev); !reflect.DeepEqual(got, batches) || ws.Frames != [2]int{3, 2} || ws.Invalid != 0 {
		t.Errorf("wal.prev replayed %d batches (%+v), want the fixture's 5 in 3 definitions and 2 references", len(got), ws)
	}
	got, ws := scanBatches(t, path)
	if ws.Invalid != 0 || ws.Good != ws.Size {
		t.Fatalf("wal.log scan = %+v: invalid frames or a torn tail", ws)
	}
	// Definitions: 3 per fixture run (4 runs), 1 for fresh, 3 big.
	if ws.Frames != [2]int{3*4 + 1 + 3, 2 * 4} {
		t.Errorf("wal.log holds %v definition/reference frames, want [16 8]", ws.Frames)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("wal.log replayed %d batches, want %d; they differ", len(got), len(want))
	}
}

// FuzzWALReplay scans a log of three CRC-valid frames — a payload taken
// as a definition, arbitrary bytes, and a reference frame with a fuzzed
// offset and columns — and must never panic.  A reference decodes only
// against a frame that decoded as a definition at exactly its offset;
// any other is counted invalid, and one that decodes equals its
// definition's identity section followed by its columns.
func FuzzWALReplay(f *testing.F) {
	batches := fixtureBatches(f)
	var enc monitor.V4Encoder
	def, err := enc.Encode(nil, batches[0])
	if err != nil {
		f.Fatal(err)
	}
	_, ident, err := monitor.DecodeV4SamplesIdent(def, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def, []byte("garbage"), uint64(0), def[ident:])
	f.Add(def, def, uint64(walHeader+len(def)), def[ident:])
	f.Add(def, []byte(walRefMagic+"\x00"), uint64(0), def[ident:])
	f.Add(def, []byte{}, uint64(1), def[ident:])
	f.Add(def[:ident], def, uint64(0), []byte{0, 0, 0})
	f.Add([]byte(walRefMagic), []byte{}, uint64(1<<63), []byte{})
	f.Fuzz(func(t *testing.T, first, second []byte, off uint64, cols []byte) {
		ref := binary.AppendUvarint([]byte(walRefMagic), off)
		ref = append(ref, cols...)
		var file []byte
		var offsets []uint64
		for _, payload := range [][]byte{first, second, ref} {
			offsets = append(offsets, uint64(len(file)))
			frame := append(make([]byte, walHeader), payload...)
			if err := sealFrame(frame); err != nil {
				t.Fatal(err)
			}
			file = append(file, frame...)
		}
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var last []monitor.Sample
		ws, err := ScanWAL(path, func(s []monitor.Sample) { last = append(last[:0], s...) })
		if err != nil {
			t.Fatal(err)
		}
		if ws.Frames[0]+ws.Frames[1]+ws.Invalid != 3 || ws.Good != ws.Size {
			t.Fatalf("scan = %+v: three whole frames must each be valid or invalid", ws)
		}
		var head []byte // the identity section the reference may resolve to
		for i, payload := range [][]byte{first, second} {
			if offsets[i] != off || bytes.HasPrefix(payload, []byte(walRefMagic)) {
				continue
			}
			if _, n, err := monitor.DecodeV4SamplesIdent(payload, nil); err == nil {
				head = payload[:n]
			}
		}
		// Only the third frame is a reference when the first two are not.
		firstTwoRefs := bytes.HasPrefix(first, []byte(walRefMagic)) || bytes.HasPrefix(second, []byte(walRefMagic))
		if head == nil && ws.Frames[1] > 0 && !firstTwoRefs {
			t.Fatalf("a reference to offset %d, where no definition was read, decoded (%+v)", off, ws)
		}
		if head != nil && !firstTwoRefs {
			want, err := monitor.DecodeV4Samples(append(bytes.Clone(head), cols...), nil)
			if (err == nil) != (ws.Frames[1] == 1) {
				t.Fatalf("reference decoded %v, its definition + columns decode err %v", ws.Frames[1] == 1, err)
			}
			if err == nil && !reflect.DeepEqual(last, want) {
				t.Fatalf("reference decoded to %v, want %v", last, want)
			}
		}
	})
}
