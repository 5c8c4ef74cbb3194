package monitor

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// bruteSelect is the differential-test ground truth: the pre-index read
// path, reimplemented from the matching primitives (not from
// Selector.Match, which the index post-filters with — a shared bug
// would be invisible).  It scans every stored key and sorts with the
// original Keys() comparator.
func bruteSelect(st *Store, sel Selector) []Key {
	var out []Key
	for k := range *st.index.Load() {
		if bruteMatch(sel, k) {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Source != out[j].Source {
			return out[i].Source < out[j].Source
		}
		if out[i].Metric != out[j].Metric {
			return out[i].Metric < out[j].Metric
		}
		if out[i].Scope != out[j].Scope {
			return out[i].Scope < out[j].Scope
		}
		if out[i].ID != out[j].ID {
			return out[i].ID < out[j].ID
		}
		return out[i].Labels.String() < out[j].Labels.String()
	})
	return out
}

func bruteMatch(sel Selector, k Key) bool {
	if !sel.AnyScope && k.Scope != sel.Scope {
		return false
	}
	if !sel.AnyID && k.ID != sel.ID {
		return false
	}
	if !sel.AnySource && !MatchSource(sel.Source, k.Source) {
		return false
	}
	if !MatchLabels(sel.Labels, k.Labels) {
		return false
	}
	if sel.QueryForm {
		// The /query dialect, verbatim from the pre-index queryKeys.
		want := strings.TrimPrefix(sel.Metric, "likwid_")
		if strings.Contains(sel.Metric, "*") {
			return WildcardMatch(want, k.Metric) || WildcardMatch(want, SanitizeMetric(k.Metric))
		}
		return k.Metric == sel.Metric || SanitizeMetric(k.Metric) == want
	}
	return MatchMetric(sel.Metric, k.Metric)
}

func keysEqual(a, b []Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mustLabelMap(t testing.TB, m map[string]string) Labels {
	t.Helper()
	l, err := MakeLabels(m)
	if err != nil {
		t.Fatalf("MakeLabels(%v): %v", m, err)
	}
	return l
}

// selectorPool builds the selector corpus the differential test sweeps:
// every dialect (DSL and QueryForm), exact and wildcard metrics,
// sanitized forms, sources, label matchers, scope and id variants.
func selectorPool(t testing.TB) []Selector {
	var sels []Selector
	sources := []string{"", "*", "node*", "nodeA", "self", "zzz"}
	metrics := []string{
		"bw", "*", "flops*", "*flops*", "DP MFlops/s", "dp_mflops_s",
		"likwid_bw", "memory_bandwidth_mbytes_s", "alert/hot", "nope",
	}
	labelSets := [][]Label{
		nil,
		{{Name: "job", Value: "a"}},
		{{Name: "job", Value: "*"}},
		{{Name: "cluster", Value: "em*"}},
		{{Name: "job", Value: "a"}, {Name: "cluster", Value: "emmy"}},
		{{Name: "job", Value: "zz"}},
	}
	for _, src := range sources {
		for _, m := range metrics {
			for _, ls := range labelSets {
				for _, qf := range []bool{false, true} {
					sels = append(sels, Selector{
						Source: src, Metric: m, QueryForm: qf, Labels: ls,
						Scope: ScopeNode, ID: 0,
					})
				}
			}
		}
	}
	// Scope/ID/AnySource variants on a few bases.
	sels = append(sels,
		Selector{Metric: "*", AnySource: true, Scope: ScopeSocket, ID: 1},
		Selector{Metric: "bw", AnySource: true, AnyScope: true, AnyID: true},
		Selector{Metric: "*", Source: "*", AnyScope: true, AnyID: true, QueryForm: true},
		Selector{Metric: "flops_dp", AnySource: true, Scope: ScopeCore, AnyID: true},
		Selector{Metric: "alert/*", Source: "*", Scope: ScopeNode, AnyID: true},
	)
	return sels
}

// keyPool is the universe of series keys the randomized stores draw
// from: every dimension the index shards on, including metrics whose
// raw and sanitized forms differ, alert histories, and a raw name that
// collides with the likwid_ exposition prefix.
func keyPool(t testing.TB) []Key {
	sources := []string{"", "nodeA", "nodeB", "node1", "self"}
	metrics := []string{
		"bw", "flops_dp", "DP MFlops/s", "Memory bandwidth [MBytes/s]",
		"alert/hot", "likwid_bw", "cluster_flops",
	}
	labels := []Labels{
		{},
		mustLabelMap(t, map[string]string{"job": "a"}),
		mustLabelMap(t, map[string]string{"job": "b"}),
		mustLabelMap(t, map[string]string{"cluster": "emmy"}),
		mustLabelMap(t, map[string]string{"job": "a", "cluster": "emmy"}),
	}
	type sid struct {
		scope Scope
		id    int
	}
	sids := []sid{{ScopeNode, 0}, {ScopeSocket, 0}, {ScopeSocket, 1}, {ScopeCore, 2}}
	var pool []Key
	for _, src := range sources {
		for _, m := range metrics {
			for _, l := range labels {
				for _, si := range sids {
					pool = append(pool, Key{Source: src, Metric: m, Scope: si.scope, ID: si.id, Labels: l})
				}
			}
		}
	}
	return pool
}

// TestSelectMatchesBruteForce is the differential property test: for
// randomized stores and the full selector corpus, Select must return
// exactly what the brute-force primitive scan returns — same keys, same
// order.
func TestSelectMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := keyPool(t)
	sels := selectorPool(t)
	for trial := 0; trial < 40; trial++ {
		st := NewStore(8)
		// A random subset, inserted in random order: singles exercise the
		// incremental insert, a leading batch the bulk path.
		perm := rng.Perm(len(pool))
		n := 1 + rng.Intn(len(pool)-1)
		if trial%2 == 0 {
			var b Batch
			for _, pi := range perm[:n/2] {
				k := pool[pi]
				b.Samples = append(b.Samples, Sample{
					Source: k.Source, Metric: k.Metric, Scope: k.Scope,
					ID: k.ID, Labels: k.Labels, Time: 1, Value: 1,
				})
			}
			st.AppendBatch(b)
			perm = perm[n/2:]
			n -= n / 2
		}
		for _, pi := range perm[:n] {
			st.Append(pool[pi], Point{Time: 1, Value: 1})
		}
		for _, sel := range sels {
			got := st.Select(sel)
			want := bruteSelect(st, sel)
			if !keysEqual(got, want) {
				t.Fatalf("trial %d: Select(%+v)\n got  %v\n want %v", trial, sel, got, want)
			}
		}
	}
}

// TestKeysCanonicalOrder pins Keys() to the documented order now that
// it is read off the index instead of sorted per call.
func TestKeysCanonicalOrder(t *testing.T) {
	st := NewStore(4)
	rng := rand.New(rand.NewSource(2))
	pool := keyPool(t)
	for _, pi := range rng.Perm(len(pool))[:60] {
		st.Append(pool[pi], Point{Time: 1, Value: 1})
	}
	keys := st.Keys()
	for i := 1; i < len(keys); i++ {
		if !keyLess(keys[i-1], keys[i]) {
			t.Fatalf("Keys() out of order at %d: %v !< %v", i, keys[i-1], keys[i])
		}
	}
	// Order survives the bulk-insert path too.
	var b Batch
	for _, pi := range rng.Perm(len(pool))[:80] {
		k := pool[pi]
		b.Samples = append(b.Samples, Sample{
			Source: k.Source, Metric: k.Metric, Scope: k.Scope,
			ID: k.ID, Labels: k.Labels, Time: 2, Value: 2,
		})
	}
	st.AppendBatch(b)
	keys = st.Keys()
	for i := 1; i < len(keys); i++ {
		if !keyLess(keys[i-1], keys[i]) {
			t.Fatalf("Keys() out of order after batch at %d: %v !< %v", i, keys[i-1], keys[i])
		}
	}
}

// TestIndexGeneration pins the cache-invalidation contract: the
// generation moves exactly when the key set grows, via either create
// path, and holds still across appends to existing series.
func TestIndexGeneration(t *testing.T) {
	st := NewStore(4)
	if g := st.IndexGen(); g != 0 {
		t.Fatalf("fresh store generation = %d, want 0", g)
	}
	k := Key{Metric: "bw", Scope: ScopeNode}
	st.Append(k, Point{Time: 1, Value: 1})
	g1 := st.IndexGen()
	if g1 == 0 {
		t.Fatal("generation did not move on series creation")
	}
	st.Append(k, Point{Time: 2, Value: 2})
	if g := st.IndexGen(); g != g1 {
		t.Fatalf("generation moved on plain append: %d -> %d", g1, g)
	}
	st.AppendBatch(Batch{Samples: []Sample{
		{Metric: "bw2", Scope: ScopeNode, Time: 1, Value: 1},
		{Metric: "bw3", Scope: ScopeNode, Time: 1, Value: 1},
		{Metric: "bw", Scope: ScopeNode, Time: 3, Value: 3}, // existing
	}})
	if g := st.IndexGen(); g != g1+2 {
		t.Fatalf("generation after batch = %d, want %d", g, g1+2)
	}
}

// TestRestoreStateRebuildsIndex pins the WAL/snapshot replay contract:
// a restored store must serve Select over the replayed keys and have a
// moved generation.
func TestRestoreStateRebuildsIndex(t *testing.T) {
	src := NewStore(8)
	for i := 0; i < 5; i++ {
		src.Append(Key{Source: "nodeA", Metric: fmt.Sprintf("m%d", i), Scope: ScopeNode},
			Point{Time: float64(i), Value: 1})
	}
	dst := NewStore(8)
	dst.RestoreState(src.DumpState())
	if g := dst.IndexGen(); g == 0 {
		t.Fatal("restored store generation still 0")
	}
	got := dst.Select(Selector{Source: "nodeA", Metric: "m3", Scope: ScopeNode})
	if len(got) != 1 || got[0].Metric != "m3" {
		t.Fatalf("Select on restored store = %v", got)
	}
	if got := dst.Select(Selector{Source: "*", Metric: "m*", Scope: ScopeNode}); len(got) != 5 {
		t.Fatalf("wildcard Select on restored store matched %d series, want 5", len(got))
	}
}

// populateLargeStore bulk-loads n series (n/100 metrics × 25 sources ×
// 4 ids) with one point each.
func populateLargeStore(tb testing.TB, n int) *Store {
	tb.Helper()
	st := NewStore(8)
	metrics := n / 100
	if metrics < 1 {
		metrics = 1
	}
	var b Batch
	for m := 0; m < metrics; m++ {
		for s := 0; s < 25; s++ {
			for id := 0; id < 4; id++ {
				b.Samples = append(b.Samples, Sample{
					Source: fmt.Sprintf("node%02d", s),
					Metric: fmt.Sprintf("metric_%03d", m),
					Scope:  ScopeCore, ID: id,
					Time: 1, Value: 1,
				})
			}
		}
	}
	st.AppendBatch(b)
	return st
}

// TestSelectIndexedSpeedup is the perf guard: at 10k series, resolving
// an exact selector through the index must beat the brute-force scan by
// at least 10× (in practice it is orders of magnitude).  Medians of
// repeated runs keep CI noise out of the ratio.
func TestSelectIndexedSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard; skipped in -short")
	}
	st := populateLargeStore(t, 10000)
	sel := Selector{Source: "node07", Metric: "metric_042", Scope: ScopeCore, ID: 2}
	if got := st.Select(sel); len(got) != 1 {
		t.Fatalf("guard selector matched %d series, want 1", len(got))
	}

	const rounds, iters = 5, 50
	median := func(f func()) time.Duration {
		times := make([]time.Duration, 0, rounds)
		for r := 0; r < rounds; r++ {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			times = append(times, time.Since(start))
		}
		sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
		return times[rounds/2]
	}
	indexed := median(func() { st.Select(sel) })
	brute := median(func() { bruteSelect(st, sel) })
	ratio := float64(brute) / float64(indexed)
	t.Logf("10k series: brute %v, indexed %v (%.0f×)", brute, indexed, ratio)
	if ratio < 10 {
		t.Fatalf("indexed Select only %.1f× faster than brute force, want >= 10×", ratio)
	}
}
