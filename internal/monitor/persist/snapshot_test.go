package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"likwid/internal/monitor"
)

var snapTiers = []monitor.Tier{{Resolution: 8, Capacity: 16}, {Resolution: 64, Capacity: 4}}

// snapshotFixture fills a store with a series in every shape a snapshot
// meets: full and draining mid-tail, head-only, empty, labelled,
// CompactLast, and values and times that only a bit-exact codec keeps
// (NaN, ±Inf, -0, duplicate and out-of-order times).
func snapshotFixture(t testing.TB, capacity int, tiers []monitor.Tier) *monitor.Store {
	t.Helper()
	st := monitor.NewStore(capacity, tiers...)
	labels, err := monitor.MakeLabels(map[string]string{"job": "lbm", "cluster": "emmy"})
	if err != nil {
		t.Fatal(err)
	}
	key := func(source, metric string, id int) monitor.Key {
		return monitor.Key{Source: source, Metric: metric, Scope: monitor.ScopeThread, ID: id}
	}
	rng := rand.New(rand.NewSource(int64(capacity)))
	for i := range 5*capacity/2 + 7 {
		st.Append(key("", "steady", 0), monitor.Point{Time: float64(i), Value: 1000 + float64(i/40)*0.125})
	}
	odd := key("node1", "odd", 3)
	tm := 100.0
	for i := range 2*capacity + 11 {
		switch r := rng.Intn(20); {
		case r == 0: // a duplicate time
		case r == 1:
			tm -= float64(1 + rng.Intn(30))
		case r == 2 && i%97 == 0:
			tm = math.NaN()
		default:
			if math.IsNaN(tm) {
				tm = float64(i)
			}
			tm++
		}
		v := 500 + float64(i/37)*0.125
		switch rng.Intn(12) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Inf(1)
		case 2:
			v = math.Inf(-1)
		case 3:
			v = math.Copysign(0, -1)
		case 4:
			v = rng.NormFloat64() * 1e9
		}
		st.Append(odd, monitor.Point{Time: tm, Value: v})
	}
	for i := range capacity + 37 {
		k := key("node1", "part", 2)
		k.Labels = labels
		st.Append(k, monitor.Point{Time: 0.5 * float64(i), Value: float64(i % 5)})
	}
	for i := range min(10, capacity) {
		st.Append(key("node2", "head", 1), monitor.Point{Time: float64(i), Value: float64(i)})
	}
	alert := monitor.Key{Metric: "alert/hot", Scope: monitor.ScopeNode}
	st.SetCompaction(alert, monitor.CompactLast)
	for i := range 3*capacity + 5 {
		st.Append(alert, monitor.Point{Time: float64(i), Value: float64(i / 3 % 2)})
	}
	st.SetCompaction(monitor.Key{Metric: "alert/never", Scope: monitor.ScopeNode}, monitor.CompactLast)
	return st
}

// sameStates compares dumps bit for bit: NaN equals NaN, -0 differs
// from 0, in points, buckets and open accumulators alike.
func sameStates(a, b []monitor.SeriesState) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d series, want %d", len(a), len(b))
	}
	bits := func(fs ...float64) string {
		var s strings.Builder
		for _, f := range fs {
			fmt.Fprintf(&s, "%x ", math.Float64bits(f))
		}
		return s.String()
	}
	dump := func(s monitor.SeriesState) string {
		var out strings.Builder
		fmt.Fprintf(&out, "%v %d raw:", s.Key, s.Compaction)
		for _, p := range s.Raw {
			out.WriteString(bits(p.Time, p.Value))
		}
		for _, t := range s.Tiers {
			fmt.Fprintf(&out, " tier %s:", bits(t.Res))
			for _, bk := range t.Buckets {
				fmt.Fprintf(&out, "%s%d ", bits(bk.Start, bk.Res, bk.Min, bk.Median, bk.Max, bk.Avg), bk.Count)
			}
			if o := t.Open; o != nil {
				fmt.Fprintf(&out, "open %s%d %s", bits(o.Start, o.Min, o.Max, o.Sum, o.LastT, o.LastV), o.Count, bits(o.Medians...))
			}
		}
		return out.String()
	}
	for i := range a {
		if da, db := dump(a[i]), dump(b[i]); da != db {
			return fmt.Errorf("series %d differs:\n got %.400s\nwant %.400s", i, da, db)
		}
	}
	return nil
}

// restoreFile reads a snapshot file into a fresh store the way Open does.
func restoreFile(path string, capacity int, tiers []monitor.Tier) (*monitor.Store, error) {
	states, err := readSnapshot(path)
	if err != nil {
		return nil, err
	}
	st := monitor.NewStore(capacity, tiers...)
	return st, st.RestoreSealed(states)
}

// TestSnapshotRestoreMatchesDumpState is the snapshot's differential
// test: a live store written to a snapshot file and restored from it must
// dump exactly what the store restored from its decoded DumpState dumps
// (and, at the same capacity, what the live store dumps), bit for bit —
// into the same, a smaller and a larger capacity, and again after both
// take the same further appends, which drain the restored tails.
func TestSnapshotRestoreMatchesDumpState(t *testing.T) {
	for _, capacity := range []int{40, 1000} {
		for _, tiers := range [][]monitor.Tier{nil, snapTiers} {
			live := snapshotFixture(t, capacity, tiers)
			var midTail, headOnly, open, last bool
			if err := live.ExportSealed(live.Keys(), func(s *monitor.SealedState) error {
				midTail = midTail || s.Toff > 0
				headOnly = headOnly || (len(s.Blocks) == 0 && s.Head.N > 0)
				last = last || s.Compaction == monitor.CompactLast
				for _, tier := range s.Tiers {
					open = open || tier.Open != nil
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !headOnly || (capacity > 64 && !midTail) || (tiers != nil && (!open || !last)) {
				t.Fatalf("cap %d: the fixture lacks a shape: mid-tail %v, head-only %v, open bucket %v, CompactLast %v",
					capacity, midTail, headOnly, open, last)
			}
			path := filepath.Join(t.TempDir(), "snapshot.json")
			if err := writeSnapshot(path, live); err != nil {
				t.Fatal(err)
			}
			for _, into := range []int{capacity, capacity / 3, 7, 4 * capacity} {
				t.Run(fmt.Sprintf("cap=%d/tiers=%d/into=%d", capacity, len(tiers), into), func(t *testing.T) {
					got, err := restoreFile(path, into, tiers)
					if err != nil {
						t.Fatal(err)
					}
					want := monitor.NewStore(into, tiers...)
					want.RestoreState(live.DumpState())
					if into == capacity {
						if err := sameStates(got.DumpState(), live.DumpState()); err != nil {
							t.Fatalf("restored vs live: %v", err)
						}
					}
					for round := range 3 {
						if err := sameStates(got.DumpState(), want.DumpState()); err != nil {
							t.Fatalf("round %d: %v", round, err)
						}
						for _, k := range live.Keys() {
							p1, ok1 := got.Latest(k)
							p2, ok2 := want.Latest(k)
							if ok1 != ok2 || math.Float64bits(p1.Time) != math.Float64bits(p2.Time) || math.Float64bits(p1.Value) != math.Float64bits(p2.Value) {
								t.Fatalf("round %d: Latest(%v) = %v %v, want %v %v", round, k, p1, ok1, p2, ok2)
							}
							for i := range into/2 + 50 {
								p := monitor.Point{Time: float64(1e6 + round*1e4 + i), Value: float64(i % 7)}
								got.Append(k, p)
								want.Append(k, p)
							}
						}
					}
				})
			}
		}
	}
}

// snapshotFile is a written snapshot cut into its magic and frames.
func snapshotFile(t testing.TB) (magic []byte, frames [][]byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "snapshot.json")
	if err := writeSnapshot(path, snapshotFixture(t, 70, snapTiers)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	magic, data = data[:len(snapMagic)], data[len(snapMagic):]
	for len(data) > 0 {
		n := walHeader + int(binary.LittleEndian.Uint32(data))
		frames, data = append(frames, data[walHeader:n]), data[n:]
	}
	return magic, frames
}

// FuzzSnapshotRead feeds the reader snapshots whose frame number which
// is replaced by payload in a frame with a valid CRC, whose file is then
// cut cut bytes short, or a version-1 JSON document.  Reading never
// panics, and a snapshot that is refused restores nothing; one that is
// accepted restores a store that keeps working and snapshots again to
// what it holds.
func FuzzSnapshotRead(f *testing.F) {
	magic, frames := snapshotFile(f)
	for i, fr := range frames {
		f.Add(fr, uint8(i), uint16(0))
		if len(fr) > 3 {
			f.Add(fr[:len(fr)/2], uint8(i), uint16(0))
			flipped := bytes.Clone(fr)
			flipped[len(fr)/3] ^= 0x10
			f.Add(flipped, uint8(i), uint16(0))
		}
	}
	f.Add([]byte{}, uint8(1), uint16(0))
	f.Add(frames[0], uint8(0), uint16(5))
	f.Add(frames[0], uint8(0), uint16(walHeader+len(frames[len(frames)-1])))
	f.Add([]byte(`{"version":1,"series":[]}`), uint8(255), uint16(0))
	f.Fuzz(func(t *testing.T, payload []byte, which uint8, cut uint16) {
		var file []byte
		if which == 255 {
			file = payload
		} else {
			file = bytes.Clone(magic)
			for i, fr := range frames {
				if i == int(which)%len(frames) {
					fr = payload
				}
				frame := append(make([]byte, walHeader), fr...)
				if err := sealFrame(frame); err != nil {
					t.Fatal(err)
				}
				file = append(file, frame...)
			}
		}
		file = file[:len(file)-int(cut)%(len(file)+1)]
		path := filepath.Join(t.TempDir(), "snapshot.json")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := restoreFile(path, 70, snapTiers)
		if err != nil {
			if st != nil && len(st.Keys()) > 0 {
				t.Fatalf("a refused snapshot restored %d series: %v", len(st.Keys()), err)
			}
			return
		}
		for _, k := range st.Keys() {
			for i := range 100 {
				st.Append(k, monitor.Point{Time: float64(1e6 + i), Value: float64(i)})
			}
			st.Window(k, 0, -1)
		}
		if err := writeSnapshot(path, st); err != nil {
			t.Fatal(err)
		}
		again, err := restoreFile(path, 70, snapTiers)
		if err != nil {
			t.Fatalf("an accepted snapshot's store snapshots to a refused one: %v", err)
		}
		if err := sameStates(again.DumpState(), st.DumpState()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOpenRefusesJSONSnapshot pins the upgrade path: a version-1 JSON
// snapshot is not read, and the error names the file and the format.
func TestOpenRefusesJSONSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.json")
	if err := os.WriteFile(path, []byte(`{"version":1,"series":[{"metric":"bw","scope":"node","id":0,"raw":[{"time":1,"value":2}]}]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := testStore()
	m, err := Open(dir, st, Options{})
	if err == nil {
		m.Close()
		t.Fatal("Open accepted a version-1 JSON snapshot")
	}
	if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "version-1 JSON snapshot") {
		t.Fatalf("error %q does not name the file and the format", err)
	}
	if n := len(st.Keys()); n != 0 {
		t.Fatalf("a refused snapshot restored %d series", n)
	}
}

// TestSnapshotDuringAppends snapshots a tiered store over and over while
// appenders keep sealing and evicting every series (run it under -race:
// a block handed out past its series' lock races with the seal that
// reuses its bytes).  Every snapshot restores, and once the appends stop
// a last one restores to exactly the live store.
func TestSnapshotDuringAppends(t *testing.T) {
	live := monitor.NewStore(100, snapTiers...)
	keys := make([]monitor.Key, 8)
	for i := range keys {
		keys[i] = monitor.Key{Metric: "bw", Scope: monitor.ScopeThread, ID: i}
	}
	path := filepath.Join(t.TempDir(), "snapshot.json")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := w; j < len(keys); j += 2 {
					live.Append(keys[j], monitor.Point{Time: float64(i), Value: float64(i*j%11) + 0.5})
				}
			}
		}()
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	for n := 0; n < 5 || time.Now().Before(deadline); n++ {
		if err := writeSnapshot(path, live); err != nil {
			t.Fatal(err)
		}
		if _, err := restoreFile(path, 100, snapTiers); err != nil {
			t.Fatalf("snapshot %d taken during appends: %v", n, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := writeSnapshot(path, live); err != nil {
		t.Fatal(err)
	}
	got, err := restoreFile(path, 100, snapTiers)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameStates(got.DumpState(), live.DumpState()); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRefusesKeysItCannotRead pins that a snapshot is never one
// that Open would refuse.  The store drops (and counts) a key with an
// empty metric, an id the wire cannot carry, an unknown scope or a
// merged label set over the cap, so every snapshot written holds the
// good series only and reads back.
func TestSnapshotRefusesKeysItCannotRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.json")
	st := monitor.NewStore(8)
	st.Append(testKey(), monitor.Point{Time: 1, Value: 2})
	base, over := map[string]string{}, map[string]string{}
	for i := 0; i < 16; i++ {
		base[fmt.Sprintf("a%d", i)], over[fmt.Sprintf("b%d", i)] = "x", "y"
	}
	lb, err := monitor.MakeLabels(base)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := monitor.MakeLabels(over)
	if err != nil {
		t.Fatal(err)
	}
	bad := []monitor.Key{{Metric: ""}, {Metric: "bw", ID: 1 << 40}, {Metric: "bw", ID: -1}, {Metric: "bw", Scope: 99},
		{Metric: "bw", Labels: monitor.MergeLabels(lb, lo)}}
	for _, k := range bad {
		st.Append(k, monitor.Point{Time: 1, Value: 2})
		if err := writeSnapshot(path, st); err != nil {
			t.Fatalf("key %+v: %v", k, err)
		}
	}
	if got := st.Stats().Refused; got != uint64(len(bad)) {
		t.Errorf("refused %d samples, want %d", got, len(bad))
	}
	got, err := restoreFile(path, 8, nil)
	if err != nil {
		t.Fatalf("the snapshot on disk no longer reads: %v", err)
	}
	if n := len(got.Keys()); n != 1 {
		t.Fatalf("the snapshot on disk holds %d series, want 1", n)
	}
}
