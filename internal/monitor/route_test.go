package monitor

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"likwid/internal/telemetry"
)

// testGroup is one single-row series group of a hand-built batch.
type testGroup struct {
	source, metric string
	labels         map[string]string
	sentAt         float64
}

// groupsOf builds the decoded shape by hand: one one-row group per
// entry, pairs sorted like a decoder leaves them.
func groupsOf(groups ...testGroup) *groupBatch {
	b := &groupBatch{}
	for i, tg := range groups {
		var pairs []Label
		for name, value := range tg.labels {
			pairs = append(pairs, Label{Name: name, Value: value})
		}
		if err := checkPairs(pairs); err != nil {
			panic(err)
		}
		b.groups = append(b.groups, sampleGroup{
			key: Key{Source: tg.source, Metric: tg.metric, Scope: ScopeNode}, pairs: pairs, lo: i, hi: i + 1,
		})
		b.times = append(b.times, 1)
		b.sentAts = append(b.sentAts, tg.sentAt)
		b.values = append(b.values, float64(10*(i+1)))
	}
	return b
}

func pairValue(pairs []Label, name string) string {
	for _, p := range pairs {
		if p.Name == name {
			return p.Value
		}
	}
	return ""
}

func routeBatch() *groupBatch {
	return groupsOf(
		testGroup{source: "nodeA", metric: "bw", labels: map[string]string{"job": "lbm"}, sentAt: 1},
		testGroup{source: "nodeA", metric: "noise", labels: map[string]string{"job": "lbm"}, sentAt: 2},
		testGroup{source: "nodeB", metric: "bw_old", sentAt: 3},
	)
}

func TestRouterDrop(t *testing.T) {
	r := NewRouter([]IngestRoute{{Metric: "noise", Action: RouteDrop, Spec: "route drop noise"}})
	b := routeBatch()
	if err := r.apply(b); err != nil {
		t.Fatal(err)
	}
	if len(b.groups) != 2 || b.rows() != 2 {
		t.Fatalf("want 2 groups / 2 rows after drop, got %d / %d", len(b.groups), b.rows())
	}
	for _, g := range b.groups {
		if g.key.Metric == "noise" {
			t.Fatalf("dropped metric still present: %+v", g)
		}
	}
	// Survivors keep pointing at their own rows: nodeB's sent_at is 3.
	if g := b.groups[1]; g.key.Source != "nodeB" || b.sentAts[g.lo] != 3 {
		t.Fatalf("group misaligned after drop: %+v sentAt=%v", g, b.sentAts[g.lo])
	}
	if st := r.Statuses(); len(st) != 1 || st[0].Matched != 1 || st[0].Action != "drop" {
		t.Fatalf("bad route status: %+v", st)
	}
}

func TestRouterRename(t *testing.T) {
	r := NewRouter([]IngestRoute{{Metric: "bw_old", Action: RouteRename, NewMetric: "bw"}})
	b := routeBatch()
	if err := r.apply(b); err != nil {
		t.Fatal(err)
	}
	if b.groups[2].key.Metric != "bw" {
		t.Fatalf("rename did not apply: %+v", b.groups[2])
	}
	if b.groups[0].key.Metric != "bw" || b.groups[1].key.Metric != "noise" {
		t.Fatalf("rename touched non-matching groups: %+v", b.groups[:2])
	}
}

// TestRouterRelabelCopiesSharedMaps: a relabel edits its own copy of a
// group's label pairs (maps, before the decoders went group-shaped) —
// neighbours sharing the decoder's backing array, and a second group
// holding the very same slice, keep theirs.
func TestRouterRelabelCopiesSharedMaps(t *testing.T) {
	b := groupsOf(
		testGroup{source: "nodeA", metric: "bw", labels: map[string]string{"job": "lbm"}},
		testGroup{source: "nodeB", metric: "bw", labels: map[string]string{"job": "lbm"}},
	)
	shared := b.groups[0].pairs
	b.groups[1].pairs = shared
	r := NewRouter([]IngestRoute{{
		Source: "nodeA", Metric: "bw", Action: RouteRelabel,
		Set: []Label{{Name: "cluster", Value: "emmy"}, {Name: "job", Value: ""}},
	}})
	if err := r.apply(b); err != nil {
		t.Fatal(err)
	}
	if got := b.groups[0].pairs; len(got) != 1 || got[0] != (Label{Name: "cluster", Value: "emmy"}) {
		t.Fatalf("relabel did not apply: %v", got)
	}
	if got := b.groups[1].pairs; len(got) != 1 || got[0] != (Label{Name: "job", Value: "lbm"}) {
		t.Fatalf("relabel mutated the pairs of a non-matching group: %v", got)
	}
	if len(shared) != 1 || shared[0] != (Label{Name: "job", Value: "lbm"}) {
		t.Fatalf("relabel mutated the shared pairs in place: %v", shared)
	}
}

// TestRouterRelabelLeavesSharedSet: the groups of a v4 payload share
// their label set's validated pairs, and interning runs once per set.  A
// relabelled group takes its own copy and interns that; the set, and
// every other group referencing it, keep the payload's labels.
func TestRouterRelabelLeavesSharedSet(t *testing.T) {
	lbm := mustLabels(t, "job=lbm")
	var rows []wireSample
	for _, src := range []string{"nodeA", "nodeB", "nodeC"} {
		rows = append(rows, wireSample{Sample: Sample{Source: src, Metric: "bw", Scope: ScopeNode, Labels: lbm, Time: 1, Value: 1}})
	}
	b, err := decodeV4Batch(encodeV4(t, rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.sets) != 1 || b.groups[0].set != &b.sets[0] || b.groups[2].set != &b.sets[0] {
		t.Fatalf("decoded %d label sets, want the 3 groups sharing one", len(b.sets))
	}
	r := NewRouter([]IngestRoute{{Source: "nodeB", Metric: "bw", Action: RouteRelabel, Set: []Label{{Name: "cluster", Value: "emmy"}}}})
	if err := r.apply(b); err != nil {
		t.Fatal(err)
	}
	b.internLabels()
	for i, want := range []string{"job=lbm", "cluster=emmy,job=lbm", "job=lbm"} {
		if got := b.groups[i].key.Labels.String(); got != want {
			t.Errorf("group %d labels = %q, want %q", i, got, want)
		}
	}
	if got := encodePairs(b.sets[0].pairs); got != "job=lbm" {
		t.Errorf("relabel mutated the shared set: %q", got)
	}
}

// TestSetPairKeepsPairsSorted pins the relabel primitive: set, replace
// and delete all leave the pairs sorted by name (the order interning and
// the wire rely on).
func TestSetPairKeepsPairsSorted(t *testing.T) {
	pairs := []Label{{Name: "job", Value: "lbm"}}
	pairs = setPair(pairs, Label{Name: "zone", Value: "z"})
	pairs = setPair(pairs, Label{Name: "cluster", Value: "emmy"})
	pairs = setPair(pairs, Label{Name: "job", Value: "xhpl"})
	pairs = setPair(pairs, Label{Name: "absent", Value: ""})
	if got := encodePairs(pairs); got != "cluster=emmy,job=xhpl,zone=z" {
		t.Fatalf("pairs = %q", got)
	}
	pairs = setPair(pairs, Label{Name: "job", Value: ""})
	if got := encodePairs(pairs); got != "cluster=emmy,zone=z" {
		t.Fatalf("pairs after delete = %q", got)
	}
}

func TestRouterOrderAndChaining(t *testing.T) {
	// A rename feeds later routes: bw_old -> bw, then bw is retagged.
	r := NewRouter([]IngestRoute{
		{Metric: "bw_old", Action: RouteRename, NewMetric: "bw"},
		{Metric: "bw", Action: RouteRelabel, Set: []Label{{Name: "cluster", Value: "emmy"}}},
	})
	b := routeBatch()
	if err := r.apply(b); err != nil {
		t.Fatal(err)
	}
	if g := b.groups[2]; g.key.Metric != "bw" || pairValue(g.pairs, "cluster") != "emmy" {
		t.Fatalf("chained routes did not apply: %+v", g)
	}
}

func TestRouterMatchDimensions(t *testing.T) {
	// Source wildcard + label matcher + sanitized metric matching.
	r := NewRouter([]IngestRoute{{
		Source: "node*", Metric: "memory_bandwidth_mbytes_s",
		Matchers: []Label{{Name: "job", Value: "l*"}},
		Action:   RouteDrop,
	}})
	const metric = "Memory bandwidth [MBytes/s]"
	b := groupsOf(
		testGroup{source: "nodeA", metric: metric, labels: map[string]string{"job": "lbm"}},
		testGroup{source: "nodeA", metric: metric, labels: map[string]string{"job": "xhpl"}},
		testGroup{source: "rack1", metric: metric, labels: map[string]string{"job": "lbm"}},
	)
	if err := r.apply(b); err != nil {
		t.Fatal(err)
	}
	if len(b.groups) != 2 {
		t.Fatalf("want 2 survivors (wrong job, wrong source), got %d", len(b.groups))
	}
}

// TestRouterCountsSamplesNotGroups: a group is routed once, but the
// match counters keep counting samples.
func TestRouterCountsSamplesNotGroups(t *testing.T) {
	r := NewRouter([]IngestRoute{{Metric: "bw", Action: RouteRename, NewMetric: "bandwidth"}})
	b := groupsOf(testGroup{source: "nodeA", metric: "bw"})
	b.groups[0].hi = 5 // one group, five rows
	for i := 1; i < 5; i++ {
		b.times, b.sentAts, b.values = append(b.times, 1), append(b.sentAts, 0), append(b.values, 1)
	}
	if err := r.apply(b); err != nil {
		t.Fatal(err)
	}
	if st := r.Statuses(); st[0].Matched != 5 {
		t.Fatalf("matched = %d for a five-sample group, want 5", st[0].Matched)
	}
}

func TestRouterRelabelOverCapRejects(t *testing.T) {
	var set []Label
	for i := 0; i < maxLabels; i++ {
		set = append(set, Label{Name: fmt.Sprintf("l%02d", i), Value: "x"})
	}
	r := NewRouter([]IngestRoute{{Metric: "bw", Action: RouteRelabel, Set: set, Spec: "route relabel bw set ..."}})
	b := groupsOf(testGroup{source: "nodeA", metric: "bw", labels: map[string]string{"job": "lbm"}}) // 1 + maxLabels > maxLabels
	if err := r.apply(b); err == nil {
		t.Fatal("over-cap relabel accepted")
	}
}

func TestRouterInstrument(t *testing.T) {
	reg := telemetry.New()
	r := NewRouter([]IngestRoute{{Metric: "noise", Action: RouteDrop}})
	r.Instrument(reg)
	if err := r.apply(routeBatch()); err != nil {
		t.Fatal(err)
	}
	// Reload: a fresh Router re-instruments onto the same registry
	// counters (identity dedup), so fleet totals survive route reloads.
	r2 := NewRouter([]IngestRoute{{Metric: "noise", Action: RouteDrop}})
	r2.Instrument(reg)
	if err := r2.apply(routeBatch()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("likwid_ingest_routed_total", "action", "drop").Value(); got != 2 {
		t.Fatalf("routed counter = %d, want 2 across reload", got)
	}
}

// TestIngestRouting drives the routing stage through the real /ingest
// handler: a drop, a rename and a relabel route reshape a pushed batch
// before it reaches the store, and the response accounts only for the
// survivors.
func TestIngestRouting(t *testing.T) {
	h, store := newTestHTTPSink(t)
	h.SetRouter(NewRouter([]IngestRoute{
		{Metric: "noise", Action: RouteDrop},
		{Metric: "bw_old", Action: RouteRename, NewMetric: "bw"},
		{Metric: "bw", Action: RouteRelabel, Set: []Label{{Name: "cluster", Value: "emmy"}}},
	}))
	payload := []byte(`{"source":"nodeA","metric":"noise","scope":"node","id":0,"time":1,"value":1}
{"source":"nodeA","metric":"bw_old","scope":"node","id":0,"time":1,"value":10}
`)
	code, body := postIngest(t, "http://"+h.Addr(), payload, false)
	if code != http.StatusOK {
		t.Fatalf("ingest = %d %q", code, body)
	}
	var resp ingestResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 1 {
		t.Fatalf("accepted = %d, want 1 (drop excluded)", resp.Accepted)
	}
	keys := store.Keys()
	if len(keys) != 1 {
		t.Fatalf("store keys = %+v, want exactly the renamed+retagged series", keys)
	}
	k := keys[0]
	if k.Metric != "bw" {
		t.Errorf("metric = %q, want renamed \"bw\"", k.Metric)
	}
	if v, ok := k.Labels.Get("cluster"); !ok || v != "emmy" {
		t.Errorf("labels = %v, want cluster=emmy from the relabel route", k.Labels.Map())
	}
	// SetRouter(nil) removes the stage: the dropped metric now lands.
	h.SetRouter(nil)
	noise := []byte(`{"source":"nodeA","metric":"noise","scope":"node","id":0,"time":2,"value":1}` + "\n")
	if code, body := postIngest(t, "http://"+h.Addr(), noise, false); code != http.StatusOK {
		t.Fatalf("unrouted ingest = %d %q", code, body)
	}
	if n := len(store.Keys()); n != 2 {
		t.Fatalf("store has %d series after removing the router, want 2", n)
	}
}

// TestQueryMetricWildcard covers the /query metric '*' suffix-wildcard:
// one response entry per matching series, fanning out across sources by
// default, composable with source= and label selectors.
func TestQueryMetricWildcard(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	lbm, _ := MakeLabels(map[string]string{"job": "lbm"})
	store.Append(Key{Source: "nodeA", Metric: "cluster_flops", Scope: ScopeNode, Labels: lbm}, Point{Time: 1, Value: 1})
	store.Append(Key{Source: "nodeB", Metric: "cluster_bw", Scope: ScopeNode}, Point{Time: 1, Value: 2})
	store.Append(Key{Source: "nodeB", Metric: "other", Scope: ScopeNode}, Point{Time: 1, Value: 3})

	// Family wildcard, no source: fans out across the fleet.
	code, body := get(t, base+"/query?metric=cluster_*&scope=node")
	if code != http.StatusOK {
		t.Fatalf("/query metric=cluster_* status %d: %s", code, body)
	}
	var many querySeriesResponse
	if err := json.Unmarshal([]byte(body), &many); err != nil {
		t.Fatal(err)
	}
	if len(many.Series) != 2 {
		t.Fatalf("metric=cluster_* returned %d series, want 2: %s", len(many.Series), body)
	}
	for _, s := range many.Series {
		if s.Metric != "cluster_flops" && s.Metric != "cluster_bw" {
			t.Errorf("unexpected series %+v", s)
		}
	}

	// Composed with an exact source.
	code, body = get(t, base+"/query?metric=cluster_*&scope=node&source=nodeA")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &many); err != nil {
		t.Fatal(err)
	}
	if len(many.Series) != 1 || many.Series[0].Metric != "cluster_flops" {
		t.Fatalf("metric=cluster_*&source=nodeA = %s, want nodeA's series only", body)
	}

	// Composed with a label selector.
	code, body = get(t, base+"/query?metric=cluster_*&scope=node&label.job=lbm")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &many); err != nil {
		t.Fatal(err)
	}
	if len(many.Series) != 1 || many.Series[0].Metric != "cluster_flops" {
		t.Fatalf("metric=cluster_*&label.job=lbm = %s, want the labelled series only", body)
	}

	// A wildcard also matches sanitized exposition names.
	store.Append(Key{Source: "nodeC", Metric: "Memory bandwidth [MBytes/s]", Scope: ScopeNode}, Point{Time: 1, Value: 4})
	code, body = get(t, base+"/query?metric=memory_*&scope=node")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &many); err != nil {
		t.Fatal(err)
	}
	if len(many.Series) != 1 || many.Series[0].Metric != "Memory bandwidth [MBytes/s]" {
		t.Fatalf("metric=memory_* = %s, want the display-named series", body)
	}
}
