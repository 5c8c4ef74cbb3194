package monitor

import (
	"reflect"
	"testing"
)

type journalRec struct {
	k Key
	p Point
}

// chanJournal is a minimal Journal: a non-blocking handoff to a buffered
// channel, dropping when full.
type chanJournal struct {
	ch      chan journalRec
	dropped int
}

func (j *chanJournal) Record(k Key, p Point) {
	select {
	case j.ch <- journalRec{k, p}:
	default:
		j.dropped++
	}
}

func (j *chanJournal) RecordBatch(samples []Sample) {
	for _, s := range samples {
		j.Record(s.Key(), Point{Time: s.Time, Value: s.Value})
	}
}

func TestJournalSeesEveryAppendPath(t *testing.T) {
	st := NewStore(8)
	j := &chanJournal{ch: make(chan journalRec, 16)}
	st.SetJournal(j)

	k := Key{Metric: "bw", Scope: ScopeNode, ID: 0}
	st.Append(k, Point{Time: 1, Value: 10})
	st.Intern(k).Append(Point{Time: 2, Value: 20})
	st.AppendBatch(Batch{Samples: []Sample{{Metric: "bw", Scope: ScopeNode, ID: 0, Time: 3, Value: 30}}})

	if got := len(j.ch); got != 3 {
		t.Fatalf("journal saw %d records, want 3", got)
	}
	for i := 1; i <= 3; i++ {
		r := <-j.ch
		if r.k != k || r.p.Time != float64(i) || r.p.Value != float64(i*10) {
			t.Fatalf("record %d = %+v, want key %v time %d value %d", i, r, k, i, i*10)
		}
	}

	// Removing the journal stops observation without touching appends.
	st.SetJournal(nil)
	st.Append(k, Point{Time: 4, Value: 40})
	if len(j.ch) != 0 {
		t.Fatalf("journal still observed after SetJournal(nil)")
	}
	if p, ok := st.Latest(k); !ok || p.Time != 4 {
		t.Fatalf("append after SetJournal(nil) lost: %+v %v", p, ok)
	}
}

// TestAppendWithWALZeroAllocs pins the acceptance criterion: enabling
// the journal must not add allocations to the interned append path —
// a single append reaches the journal as plain values.  The ring is
// filled first, so the pin measures the steady state (eviction), not
// the ring's one-time growth.
func TestAppendWithWALZeroAllocs(t *testing.T) {
	st := NewStore(1024)
	j := &chanJournal{ch: make(chan journalRec, 4)} // tiny: exercises the drop path too
	st.SetJournal(j)
	h := st.Intern(Key{Metric: "bw", Scope: ScopeNode, ID: 0})
	p := Point{Time: 1, Value: 2}
	for i := 0; i < 1024; i++ {
		h.Append(p)
	}
	if allocs := testing.AllocsPerRun(1000, func() { h.Append(p) }); allocs != 0 {
		t.Fatalf("Series.Append with journal allocates %.1f allocs/op, want 0", allocs)
	}
}

// stateTestStore builds a store with two cascading tiers and drives two
// series far enough that the rings wrap, buckets seal, a bucket
// cascades into the coarse tier, and both tiers hold open accumulators.
func stateTestStore(t *testing.T) (*Store, Key, Key) {
	t.Helper()
	st := NewStore(4, Tier{Resolution: 1, Capacity: 4}, Tier{Resolution: 4, Capacity: 2})
	gauge := Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, ID: 0}
	alert := Key{Metric: "alert/hot", Scope: ScopeNode, ID: 0}
	st.SetCompaction(alert, CompactLast)
	for i := 0; i < 40; i++ {
		ts := float64(i) * 0.25
		st.Append(gauge, Point{Time: ts, Value: float64(i)})
		st.Append(alert, Point{Time: ts, Value: float64(i % 2)})
	}
	return st, gauge, alert
}

func TestStateDumpRestoreRoundTrips(t *testing.T) {
	st, gauge, alert := stateTestStore(t)
	states := st.DumpState()
	if len(states) != 2 {
		t.Fatalf("DumpState returned %d series, want 2", len(states))
	}

	fresh := NewStore(4, Tier{Resolution: 1, Capacity: 4}, Tier{Resolution: 4, Capacity: 2})
	fresh.RestoreState(states)

	for _, k := range []Key{gauge, alert} {
		want := st.Window(k, 0, -1)
		got := fresh.Window(k, 0, -1)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("restored Window(%v) = %v, want %v", k, got, want)
		}
		for _, res := range []float64{1, 4} {
			wb := st.Buckets(k, res, 0, -1)
			gb := fresh.Buckets(k, res, 0, -1)
			if !reflect.DeepEqual(gb, wb) {
				t.Errorf("restored Buckets(%v, res=%v) = %v, want %v", k, res, gb, wb)
			}
		}
	}

	// The restored store keeps accumulating: appends continue the open
	// bucket (not a fresh one) and the cascade still works.
	p := Point{Time: 10.0, Value: 100}
	st.Append(gauge, p)
	fresh.Append(gauge, p)
	if got, want := fresh.Window(gauge, 0, -1), st.Window(gauge, 0, -1); !reflect.DeepEqual(got, want) {
		t.Errorf("post-restore append diverged: %v vs %v", got, want)
	}

	// Compaction mode survives: the alert series still seals last-value
	// buckets after restore.
	if st2 := fresh.DumpState(); len(st2) == 2 {
		for _, s := range st2 {
			want := CompactMean
			if s.Key == alert {
				want = CompactLast
			}
			if s.Compaction != want {
				t.Errorf("series %v restored compaction %v, want %v", s.Key, s.Compaction, want)
			}
		}
	}
}

// TestStateRestoreAdaptsToShape covers restores into a reshaped store:
// a smaller raw ring keeps the newest points, and a dumped tier whose
// resolution is no longer configured is dropped, not mis-folded.
func TestStateRestoreAdaptsToShape(t *testing.T) {
	st, gauge, _ := stateTestStore(t)
	states := st.DumpState()

	small := NewStore(2, Tier{Resolution: 1, Capacity: 4})
	small.RestoreState(states)

	want := st.Window(gauge, 0, -1)
	newest := want[len(want)-2:]
	got := small.Window(gauge, 0, -1)
	if len(got) < 2 || !reflect.DeepEqual(got[len(got)-2:], newest) {
		t.Errorf("small restore tail = %v, want suffix %v", got, newest)
	}
	if b := small.Buckets(gauge, 4, 0, -1); b != nil {
		t.Errorf("unconfigured tier resolution restored buckets: %v", b)
	}
	if wb, gb := st.Buckets(gauge, 1, 0, -1), small.Buckets(gauge, 1, 0, -1); !reflect.DeepEqual(gb, wb) {
		t.Errorf("matching tier diverged after reshape: %v vs %v", gb, wb)
	}
}
