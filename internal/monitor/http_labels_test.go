package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// ---- satellite regressions -------------------------------------------------

// TestMetricsLatestStaysMonotonicOnOutOfOrderIngest pins /metrics
// against replayed or late-arriving batches: an older sample must never
// overwrite a newer "latest" value.
func TestMetricsLatestStaysMonotonicOnOutOfOrderIngest(t *testing.T) {
	h, _ := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	newest := []byte(`{"time":100,"metric":"bw","scope":"node","id":0,"value":7}` + "\n")
	replay := []byte(`{"time":50,"metric":"bw","scope":"node","id":0,"value":3}` + "\n")
	if code, body := postIngest(t, base, newest, false); code != http.StatusOK {
		t.Fatalf("ingest = %d %q", code, body)
	}
	if code, body := postIngest(t, base, replay, false); code != http.StatusOK {
		t.Fatalf("replay ingest = %d %q", code, body)
	}
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, `likwid_bw{scope="node",id="0"} 7 100`) {
		t.Errorf("/metrics after replay = %d %q, want the t=100 value 7 kept", code, body)
	}
	// The same guarantee holds on the Write (local batch) path.
	if err := h.Write(Batch{Collector: "c", Time: 10, Samples: []Sample{
		{Metric: "bw", Scope: ScopeNode, ID: 0, Time: 10, Value: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, body := get(t, base+"/metrics"); !strings.Contains(body, `likwid_bw{scope="node",id="0"} 7 100`) {
		t.Errorf("/metrics after stale Write = %q, want the t=100 value kept", body)
	}
	// A genuinely newer sample still replaces it.
	if code, _ := postIngest(t, base, []byte(`{"time":101,"metric":"bw","scope":"node","id":0,"value":9}`+"\n"), false); code != http.StatusOK {
		t.Fatal("newer ingest rejected")
	}
	if _, body := get(t, base+"/metrics"); !strings.Contains(body, `likwid_bw{scope="node",id="0"} 9 101`) {
		t.Errorf("/metrics after newer ingest = %q, want value 9 at t=101", body)
	}
}

// TestIngestExactlyAtDecompressedLimit pins the 413 boundary: a
// decompressed payload of exactly maxIngestDecompressed bytes is within
// the limit and must be accepted; one byte more is rejected.
func TestIngestExactlyAtDecompressedLimit(t *testing.T) {
	record := `{"time":1,"metric":"bw","scope":"node","id":0,"value":1}` + "\n"
	h, store := newTestHTTPSink(t)
	// Shrink this sink's own cap so the boundary payload stays tiny;
	// other sinks (and production) keep the constant default.
	h.maxDecompressed = 1024
	base := "http://" + h.Addr()

	// Pad with trailing newlines (whitespace between JSON values) to
	// exactly the cap.
	atLimit := record + strings.Repeat("\n", int(h.maxDecompressed)-len(record))
	if int64(len(atLimit)) != h.maxDecompressed {
		t.Fatalf("test payload is %d bytes, want %d", len(atLimit), h.maxDecompressed)
	}
	code, body := postIngest(t, base, gzipped(t, []byte(atLimit)), true)
	if code != http.StatusOK {
		t.Fatalf("at-limit ingest = %d %q, want 200", code, body)
	}
	if n := store.Len(Key{Metric: "bw", Scope: ScopeNode, ID: 0}); n != 1 {
		t.Errorf("store has %d points after at-limit ingest, want 1", n)
	}

	overLimit := atLimit + "\n"
	code, body = postIngest(t, base, gzipped(t, []byte(overLimit)), true)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-limit ingest = %d %q, want 413", code, body)
	}
}

// TestLimitedReaderBoundary covers the reader directly: exactly n bytes
// stream through cleanly, n+1 errors.
func TestLimitedReaderBoundary(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 64)
	lr := &limitedReader{r: bytes.NewReader(data), n: 64}
	got, err := io.ReadAll(lr)
	if err != nil || len(got) != 64 {
		t.Errorf("ReadAll(at limit) = %d bytes, %v; want 64, nil", len(got), err)
	}
	lr = &limitedReader{r: bytes.NewReader(append(data, 'y')), n: 64}
	if _, err := io.ReadAll(lr); err != errTooLarge {
		t.Errorf("ReadAll(over limit) err = %v, want errTooLarge", err)
	}
}

// ---- labels end to end over HTTP -------------------------------------------

// TestIngestV3LabelsBecomeKeyDimension is the v3 wire contract: the
// labels object lands interned in Key.Labels, distinct label sets stay
// distinct series, and /metrics exposes the full set.
func TestIngestV3LabelsBecomeKeyDimension(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	payload := []byte(`{"time":1,"source":"nodeA","labels":{"job":"lbm","cluster":"emmy"},"metric":"bw","scope":"node","id":0,"value":10}
{"time":1,"source":"nodeA","labels":{"job":"ep","cluster":"emmy"},"metric":"bw","scope":"node","id":0,"value":20}
{"time":1,"source":"nodeA","metric":"bw","scope":"node","id":0,"value":30}
`)
	if code, body := postIngest(t, base, payload, false); code != http.StatusOK {
		t.Fatalf("v3 ingest = %d %q", code, body)
	}
	lbm := mustLabels(t, "cluster=emmy,job=lbm")
	ep := mustLabels(t, "cluster=emmy,job=ep")
	if p, ok := store.Latest(Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, Labels: lbm}); !ok || p.Value != 10 {
		t.Errorf("job=lbm series latest = %+v (%v), want 10", p, ok)
	}
	if p, ok := store.Latest(Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, Labels: ep}); !ok || p.Value != 20 {
		t.Errorf("job=ep series latest = %+v (%v), want 20", p, ok)
	}
	if p, ok := store.Latest(Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode}); !ok || p.Value != 30 {
		t.Errorf("unlabelled series latest = %+v (%v), want 30", p, ok)
	}
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK ||
		!strings.Contains(body, `likwid_bw{source="nodeA",cluster="emmy",job="lbm",scope="node",id="0"} 10`) {
		t.Errorf("/metrics = %d %q, want the fully labelled lbm line", code, body)
	}
}

// TestIngestRejectsMalformedLabels pins all-or-nothing label validation:
// one bad label map 400s the whole batch and nothing lands.
func TestIngestRejectsMalformedLabels(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	good := `{"time":1,"metric":"ok","scope":"node","id":0,"value":1}` + "\n"
	for name, bad := range map[string]string{
		"bad name":       `{"time":1,"labels":{"bad name":"x"},"metric":"bw","scope":"node","id":0,"value":1}`,
		"digit name":     `{"time":1,"labels":{"1job":"x"},"metric":"bw","scope":"node","id":0,"value":1}`,
		"empty value":    `{"time":1,"labels":{"job":""},"metric":"bw","scope":"node","id":0,"value":1}`,
		"comma in value": `{"time":1,"labels":{"job":"a,b"},"metric":"bw","scope":"node","id":0,"value":1}`,
		"quote in value": `{"time":1,"labels":{"job":"a\"b"},"metric":"bw","scope":"node","id":0,"value":1}`,
	} {
		code, body := postIngest(t, base, []byte(good+bad+"\n"), false)
		if code != http.StatusBadRequest {
			t.Errorf("%s: ingest = %d %q, want 400", name, code, body)
		}
	}
	if n := len(store.Keys()); n != 0 {
		t.Errorf("store has %d series after rejected batches, want 0 (all-or-nothing)", n)
	}
}

// TestIngestDefaultLabelsMerged covers receiver-side -labels: defaults
// are stamped under each ingested sample's own labels, the sample
// winning per name.
func TestIngestDefaultLabelsMerged(t *testing.T) {
	h, store := newTestHTTPSink(t)
	h.SetIngestLabels(mustLabels(t, "cluster=emmy,job=default"))
	base := "http://" + h.Addr()
	payload := []byte(`{"time":1,"source":"nodeA","labels":{"job":"lbm"},"metric":"bw","scope":"node","id":0,"value":10}
{"time":1,"source":"nodeB","metric":"bw","scope":"node","id":0,"value":20}
`)
	if code, body := postIngest(t, base, payload, false); code != http.StatusOK {
		t.Fatalf("ingest = %d %q", code, body)
	}
	a := Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, Labels: mustLabels(t, "cluster=emmy,job=lbm")}
	if p, ok := store.Latest(a); !ok || p.Value != 10 {
		t.Errorf("nodeA latest = %+v (%v), want its own job=lbm kept under the cluster default", p, ok)
	}
	b := Key{Source: "nodeB", Metric: "bw", Scope: ScopeNode, Labels: mustLabels(t, "cluster=emmy,job=default")}
	if p, ok := store.Latest(b); !ok || p.Value != 20 {
		t.Errorf("nodeB latest = %+v (%v), want the full default set", p, ok)
	}
}

// TestIngestDefaultLabelsMergeOverflowRejected pins the wire cap across
// the receiver merge: defaults plus a sample's own labels must not
// smuggle an over-cap set into the store; the batch 400s whole.
func TestIngestDefaultLabelsMergeOverflowRejected(t *testing.T) {
	h, store := newTestHTTPSink(t)
	defaults := map[string]string{}
	for i := 0; i < maxLabels; i++ {
		defaults[fmt.Sprintf("d%d", i)] = "x"
	}
	ls, err := MakeLabels(defaults)
	if err != nil {
		t.Fatal(err)
	}
	h.SetIngestLabels(ls)
	// A label value no other test interns, so the intern table must not
	// grow from this rejected batch.
	payload := []byte(`{"time":1,"labels":{"job":"overflow_probe_v1"},"metric":"bw","scope":"node","id":0,"value":1}` + "\n")
	before := internTableSize()
	code, body := postIngest(t, "http://"+h.Addr(), payload, false)
	if code != http.StatusBadRequest || !strings.Contains(body, "exceed the limit") {
		t.Errorf("overflowing merge = %d %q, want 400", code, body)
	}
	if n := len(store.Keys()); n != 0 {
		t.Errorf("store has %d series after the rejected merge, want 0", n)
	}
	if after := internTableSize(); after != before {
		t.Errorf("intern table grew by %d sets from a rejected batch, want no residue", after-before)
	}
}

// internTableSize counts the process-wide interned label sets.
func internTableSize() int {
	labelIntern.Lock()
	defer labelIntern.Unlock()
	return len(labelIntern.m)
}

// TestQueryLabelSelectors covers /query?label.NAME=VALUE: exact and
// wildcard values, composition with source=, and the fan-out response
// shape with per-series label sets.
func TestQueryLabelSelectors(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	lbm := mustLabels(t, "cluster=emmy,job=lbm")
	ep := mustLabels(t, "cluster=emmy,job=ep")
	store.Append(Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, Labels: lbm}, Point{Time: 1, Value: 10})
	store.Append(Key{Source: "nodeB", Metric: "bw", Scope: ScopeNode, Labels: lbm}, Point{Time: 1, Value: 11})
	store.Append(Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, Labels: ep}, Point{Time: 1, Value: 20})
	store.Append(Key{Metric: "bw", Scope: ScopeNode}, Point{Time: 1, Value: 1})

	series := func(url string) []queryResponse {
		t.Helper()
		code, body := get(t, url)
		if code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", url, code, body)
		}
		var resp querySeriesResponse
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
		}
		return resp.Series
	}

	// A label selector alone fans out across sources carrying it.
	got := series(base + "/query?metric=bw&scope=node&source=*&label.job=lbm")
	if len(got) != 2 || got[0].Source != "nodeA" || got[1].Source != "nodeB" {
		t.Fatalf("label.job=lbm matched %+v, want nodeA and nodeB", got)
	}
	if got[0].Labels["job"] != "lbm" || got[0].Labels["cluster"] != "emmy" {
		t.Errorf("response labels = %v, want the full series set", got[0].Labels)
	}

	// Composable with an exact source: one agent's labelled series only.
	got = series(base + "/query?metric=bw&scope=node&source=nodeA&label.job=lbm")
	if len(got) != 1 || got[0].Points[0].Value != 10 {
		t.Errorf("source=nodeA&label.job=lbm = %+v, want the one lbm series", got)
	}

	// Wildcard selector values work, and multiple selectors AND.
	got = series(base + "/query?metric=bw&scope=node&source=*&label.job=*&label.cluster=em*")
	if len(got) != 3 {
		t.Errorf("label.job=*&label.cluster=em* matched %d series, want 3", len(got))
	}

	// Unlabelled series never match a selector.
	got = series(base + "/query?metric=bw&scope=node&source=*&label.rack=*")
	if len(got) != 0 {
		t.Errorf("label.rack=* matched %d series, want 0", len(got))
	}

	// Without an explicit source parameter a label selector fans out
	// across the fleet — the slice must not silently come back empty on
	// a receiver whose series all carry sources.
	got = series(base + "/query?metric=bw&scope=node&label.job=lbm")
	if len(got) != 2 {
		t.Errorf("label.job=lbm without source matched %d series, want the 2 fleet series", len(got))
	}
	// An explicit empty source still means local-only.
	got = series(base + "/query?metric=bw&scope=node&source=&label.job=lbm")
	if len(got) != 0 {
		t.Errorf("explicit empty source matched %d series, want 0 (local only)", len(got))
	}

	// Malformed selectors are 400s — reserved names included, since a
	// series label can never be called source/scope/id.
	for _, q := range []string{"label.bad%20name=x", "label.job=", "label.source=nodeA"} {
		if code, _ := get(t, base+"/query?metric=bw&scope=node&"+q); code != http.StatusBadRequest {
			t.Errorf("/query with %s = %d, want 400", q, code)
		}
	}
}

// TestIngestMixedVersionsV1V2V3 is the compat contract across the wire
// generations still spoken: v2 source field and v3 labels land exactly
// where they should — absent labels are the empty set, so v2 keys are
// unchanged.  (The v1 "SOURCE/metric" prefix form is retired: a
// sourceless record keeps its metric name verbatim.)
func TestIngestMixedVersionsV1V2V3(t *testing.T) {
	tests := []struct {
		name    string
		records []string
		key     Key
		values  []float64
	}{
		{
			name: "v2 records share the unlabelled key",
			records: []string{
				`{"time":1,"source":"nodeA","metric":"bw","scope":"node","id":0,"value":10}`,
				`{"time":2,"source":"nodeA","metric":"bw","scope":"node","id":0,"value":20}`,
			},
			key:    Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode},
			values: []float64{10, 20},
		},
		{
			name: "v3 without labels is exactly v2",
			records: []string{
				`{"time":1,"source":"nodeA","metric":"bw","scope":"node","id":0,"value":10}`,
				`{"time":2,"source":"nodeA","labels":{},"metric":"bw","scope":"node","id":0,"value":20}`,
			},
			key:    Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode},
			values: []float64{10, 20},
		},
		{
			name: "equal v3 label sets stitch into one series",
			records: []string{
				`{"time":1,"source":"nodeA","labels":{"job":"lbm","cluster":"emmy"},"metric":"bw","scope":"node","id":0,"value":10}`,
				`{"time":2,"source":"nodeA","labels":{"cluster":"emmy","job":"lbm"},"metric":"bw","scope":"node","id":0,"value":20}`,
			},
			key:    Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, Labels: labelsOrDie("cluster=emmy,job=lbm")},
			values: []float64{10, 20},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h, store := newTestHTTPSink(t)
			base := "http://" + h.Addr()
			for i, rec := range tt.records {
				if code, body := postIngest(t, base, []byte(rec+"\n"), false); code != http.StatusOK {
					t.Fatalf("record %d ingest = %d %q", i, code, body)
				}
			}
			if n := len(store.Keys()); n != 1 {
				t.Fatalf("store has %d series, want all generations on one key (keys: %+v)", n, store.Keys())
			}
			pts := store.Window(tt.key, 0, -1)
			if len(pts) != len(tt.values) {
				t.Fatalf("window = %+v, want %d stitched points", pts, len(tt.values))
			}
			for i, p := range pts {
				if p.Value != tt.values[i] {
					t.Errorf("point %d = %+v, want value %v", i, p, tt.values[i])
				}
			}
		})
	}
}

// labelsOrDie builds labels in table literals where no *testing.T is in
// scope yet.
func labelsOrDie(spec string) Labels {
	ls, err := ParseLabelSpec(spec)
	if err != nil {
		panic(err)
	}
	return ls
}
