package monitor

import (
	"sync"
	"testing"
)

func key(metric string) Key { return Key{Metric: metric, Scope: ScopeThread, ID: 0} }

func TestRingBufferWraparound(t *testing.T) {
	st := NewStore(4)
	k := key("bw")
	for i := 0; i < 10; i++ {
		st.Append(k, Point{Time: float64(i), Value: float64(i * 100)})
	}
	if n := st.Len(k); n != 4 {
		t.Fatalf("Len = %d, want capacity 4", n)
	}
	// Only the newest 4 points survive, oldest first.
	got := st.Window(k, 0, -1)
	if len(got) != 4 {
		t.Fatalf("window returned %d points, want 4", len(got))
	}
	for i, p := range got {
		wantT := float64(6 + i)
		if p.Time != wantT || p.Value != wantT*100 {
			t.Errorf("point %d = %+v, want t=%v v=%v", i, p, wantT, wantT*100)
		}
	}
	latest, ok := st.Latest(k)
	if !ok || latest.Time != 9 {
		t.Errorf("Latest = %+v ok=%v, want t=9", latest, ok)
	}
}

func TestWindowQuerySemantics(t *testing.T) {
	st := NewStore(16)
	k := key("bw")
	for i := 0; i < 8; i++ {
		st.Append(k, Point{Time: float64(i), Value: float64(i)})
	}
	// Inclusive bounds on both ends.
	got := st.Window(k, 2, 5)
	if len(got) != 4 || got[0].Time != 2 || got[3].Time != 5 {
		t.Fatalf("window [2,5] = %+v, want times 2..5", got)
	}
	// Negative "to" means until the newest point.
	if got := st.Window(k, 6, -1); len(got) != 2 {
		t.Fatalf("window [6,∞) = %+v, want 2 points", got)
	}
	// Empty window and unknown series are empty, not nil panics.
	if got := st.Window(k, 100, 200); len(got) != 0 {
		t.Fatalf("out-of-range window = %+v, want empty", got)
	}
	if got := st.Window(key("nope"), 0, -1); got != nil {
		t.Fatalf("unknown series window = %+v, want nil", got)
	}
}

func TestStorePartiallyFilledRing(t *testing.T) {
	st := NewStore(8)
	k := key("x")
	st.Append(k, Point{Time: 1, Value: 10})
	st.Append(k, Point{Time: 2, Value: 20})
	got := st.Window(k, 0, -1)
	if len(got) != 2 || got[0].Time != 1 || got[1].Time != 2 {
		t.Fatalf("window = %+v, want the 2 appended points in order", got)
	}
	if _, ok := st.Latest(key("nope")); ok {
		t.Error("Latest on unknown series must report !ok")
	}
}

func TestStoreKeysSortedAndBatch(t *testing.T) {
	st := NewStore(4)
	st.AppendBatch(Batch{Time: 1, Samples: []Sample{
		{Metric: "b", Scope: ScopeNode, ID: 0, Time: 1, Value: 1},
		{Metric: "a", Scope: ScopeSocket, ID: 1, Time: 1, Value: 2},
		{Metric: "a", Scope: ScopeSocket, ID: 0, Time: 1, Value: 3},
		{Metric: "a", Scope: ScopeThread, ID: 0, Time: 1, Value: 4},
	}})
	keys := st.Keys()
	want := []Key{
		{Metric: "a", Scope: ScopeThread, ID: 0},
		{Metric: "a", Scope: ScopeSocket, ID: 0},
		{Metric: "a", Scope: ScopeSocket, ID: 1},
		{Metric: "b", Scope: ScopeNode, ID: 0},
	}
	if len(keys) != len(want) {
		t.Fatalf("Keys = %+v, want %+v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("key %d = %+v, want %+v", i, keys[i], want[i])
		}
	}
}

func TestStoreConcurrentAppends(t *testing.T) {
	st := NewStore(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			k := Key{Metric: "m", Scope: ScopeThread, ID: g}
			for i := 0; i < 200; i++ {
				st.Append(k, Point{Time: float64(i), Value: float64(i)})
				st.Window(k, 0, -1)
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		k := Key{Metric: "m", Scope: ScopeThread, ID: g}
		if n := st.Len(k); n != 128 {
			t.Errorf("series %d Len = %d, want 128", g, n)
		}
	}
}

// TestStoreSourceIsAKeyDimension pins the identity refactor: the same
// metric under different sources is different series, distinct from a
// metric that happens to contain a slash.
func TestStoreSourceIsAKeyDimension(t *testing.T) {
	st := NewStore(8)
	local := Key{Metric: "bw", Scope: ScopeNode, ID: 0}
	fleetA := Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, ID: 0}
	slashy := Key{Metric: "nodeA/bw", Scope: ScopeNode, ID: 0}
	st.Append(local, Point{Time: 1, Value: 1})
	st.Append(fleetA, Point{Time: 1, Value: 2})
	st.Append(slashy, Point{Time: 1, Value: 3})
	if n := len(st.Keys()); n != 3 {
		t.Fatalf("store has %d series, want 3 distinct identities", n)
	}
	for k, want := range map[Key]float64{local: 1, fleetA: 2, slashy: 3} {
		if p, ok := st.Latest(k); !ok || p.Value != want {
			t.Errorf("Latest(%+v) = %+v ok=%v, want value %v", k, p, ok, want)
		}
	}
	// Keys sorts local series first, then per-source blocks.
	keys := st.Keys()
	if keys[0].Source != "" || keys[1].Source != "" || keys[2].Source != "nodeA" {
		t.Errorf("Keys order = %+v, want sourceless first", keys)
	}
}

// TestStoreInternHandle covers the pinned-series fast path used by the
// ingest fan-in: a handle appends into the same ring the keyed API
// reads.
func TestStoreInternHandle(t *testing.T) {
	st := NewStore(8)
	k := Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, ID: 0}
	h := st.Intern(k)
	for i := 0; i < 3; i++ {
		h.Append(Point{Time: float64(i), Value: float64(i * 10)})
	}
	if pts := st.Window(k, 0, -1); len(pts) != 3 || pts[2].Value != 20 {
		t.Fatalf("window through keyed API = %+v, want the 3 handle appends", pts)
	}
	if p, ok := h.Latest(); !ok || p.Value != 20 {
		t.Fatalf("handle Latest = %+v ok=%v, want value 20", p, ok)
	}
	// Interning twice resolves the same series.
	st.Intern(k).Append(Point{Time: 3, Value: 30})
	if n := st.Len(k); n != 4 {
		t.Fatalf("Len = %d after second handle append, want 4", n)
	}
}
