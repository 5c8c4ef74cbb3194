package monitor

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"

	"likwid/internal/telemetry"
)

// fuzzSink builds an HTTPSink handler harness without binding a socket:
// the fuzz targets drive the handlers directly through httptest.  It is
// instrumented, so hostile sent_at stamps run the whole skew/latency
// observation path (which must clamp, never panic).
func fuzzSink() *HTTPSink {
	st := NewStore(8, Tier{Resolution: 1, Capacity: 4})
	st.Append(Key{Metric: "bw", Scope: ScopeNode, ID: 0}, Point{Time: 1, Value: 100})
	h := &HTTPSink{store: st}
	h.Instrument(telemetry.New())
	return h
}

// FuzzQueryParams hammers the /query parameter parsing: arbitrary
// metric/scope/id/from/to values must produce 200 or 400, never a panic
// or a 5xx.
func FuzzQueryParams(f *testing.F) {
	f.Add("bw", "node", "0", "0.5", "2.0")
	f.Add("bw", "galaxy", "0", "", "")
	f.Add("", "", "", "", "")
	f.Add("likwid_bw", "node", "0", "-1e308", "1e308")
	f.Add("bw", "node", "99999999999999999999", "1.5x", "nope")
	f.Add("bw\x00", "thread", "-1", "NaN", "Inf")
	f.Fuzz(func(t *testing.T, metric, scope, id, from, to string) {
		h := fuzzSink()
		q := url.Values{}
		for key, v := range map[string]string{"metric": metric, "scope": scope, "id": id, "from": from, "to": to} {
			if v != "" {
				q.Set(key, v)
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/query?"+q.Encode(), nil)
		w := httptest.NewRecorder()
		h.handleQuery(w, req)
		if c := w.Code; c != http.StatusOK && (c < 400 || c >= 500) {
			t.Fatalf("/query?%s returned %d, want 200 or 4xx", q.Encode(), c)
		}
		if w.Code == http.StatusOK {
			var resp queryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 /query body is not valid JSON: %v", err)
			}
		}
	})
}

// FuzzIngestPayload hammers the /ingest body parsing: corrupt JSON,
// corrupt gzip framing and hostile field values must produce a 4xx,
// never a panic, a 5xx, or a partial batch in the store.
func FuzzIngestPayload(f *testing.F) {
	valid := []byte(`{"time":0.5,"collector":"c","metric":"bw","scope":"node","id":0,"value":1}` + "\n")
	var validGz bytes.Buffer
	zw := gzip.NewWriter(&validGz)
	zw.Write(valid)
	zw.Close()

	f.Add(valid, false)
	f.Add(validGz.Bytes(), true)
	f.Add(valid, true) // plain bytes with a gzip header claim
	f.Add([]byte("\x1f\x8b\x08garbage"), true)
	f.Add([]byte(`{"time":-1,"metric":"bw","scope":"node","id":0,"value":1}`), false)
	f.Add([]byte(`{"time":1,"metric":"bw","scope":"node","id":0,"value":1e999}`), false)
	f.Add([]byte("{}\n{}\n"), false)
	f.Add([]byte(nil), false)
	f.Add([]byte(`{"time":1,"source":"nodeA","metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false) // v2 source field
	f.Add([]byte(`{"time":1,"metric":"nodeA/bw","scope":"node","id":0,"value":1}`+"\n"), false)            // slash in a sourceless metric
	f.Add([]byte(`{"time":1,"source":"no spaces","metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false)
	f.Add([]byte(`{"time":1,"metric":"alert/r","scope":"node","id":0,"value":1}`+"\n"), false) // reserved namespace
	// v3 label records: valid sets must land, malformed label maps must
	// 400 all-or-nothing (the harness below checks no partial ingest).
	f.Add([]byte(`{"time":1,"source":"nodeA","labels":{"job":"lbm","cluster":"emmy"},"metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false)
	f.Add([]byte(`{"time":1,"labels":{},"metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false)               // empty set = v2
	f.Add([]byte(`{"time":1,"labels":{"bad name":"x"},"metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false) // bad label name
	f.Add([]byte(`{"time":1,"labels":{"job":"a,b"},"metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false)    // comma in value
	f.Add([]byte(`{"time":1,"metric":"ok","scope":"node","id":0,"value":1}`+"\n"+
		`{"time":1,"labels":{"job":""},"metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false) // good then bad label map
	f.Add([]byte(`{"time":1,"labels":"job=lbm","metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false) // labels not an object
	// sent_at is advisory latency metadata: absent, zero, negative and
	// far-future stamps must all land (clamped into the skew histogram's
	// edge buckets), never reject the batch, never panic.
	f.Add([]byte(`{"time":1,"sent_at":0,"source":"nodeA","metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false)
	f.Add([]byte(`{"time":1,"sent_at":-1.5,"source":"nodeA","metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false)
	f.Add([]byte(`{"time":1,"sent_at":9.9e300,"source":"nodeA","metric":"bw","scope":"node","id":0,"value":1}`+"\n"), false)
	f.Fuzz(func(t *testing.T, body []byte, gz bool) {
		h := fuzzSink()
		before := len(h.store.Keys())
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		if gz {
			req.Header.Set("Content-Encoding", "gzip")
		}
		w := httptest.NewRecorder()
		h.handleIngest(w, req)
		switch c := w.Code; {
		case c == http.StatusOK:
			var resp ingestResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 /ingest body is not valid JSON: %v", err)
			}
			if resp.Accepted < 0 {
				t.Fatalf("accepted = %d", resp.Accepted)
			}
		case c >= 400 && c < 500:
			// Rejections are all-or-nothing: the store must be untouched.
			if after := len(h.store.Keys()); after != before {
				t.Fatalf("rejected ingest (status %d) still created %d series", c, after-before)
			}
		default:
			t.Fatalf("/ingest returned %d, want 200 or 4xx", c)
		}
	})
}

// fuzzV4Seeds is the shared seed set for FuzzIngestV4 and the checked-in
// corpus (TestV4FuzzCorpusSeeds keeps the testdata files in sync).
func fuzzV4Seeds(tb testing.TB) map[string]struct {
	Body []byte
	Gzip bool
} {
	valid := encodeV4(tb, v4WireSamples(tb))
	var validGz bytes.Buffer
	zw := gzip.NewWriter(&validGz)
	zw.Write(valid)
	zw.Close()
	shim := encodeV4(tb, []wireSample{
		{Sample: Sample{Time: 1, Metric: "nodeA/bw", Scope: ScopeNode, Value: 1}, Collector: "c"},
	})
	invalid := encodeV4(tb, []wireSample{
		{Sample: Sample{Time: -1, Metric: "bw", Scope: ScopeNode, Value: 1}},
	})
	return map[string]struct {
		Body []byte
		Gzip bool
	}{
		"valid":        {valid, false},
		"valid_gzip":   {validGz.Bytes(), true},
		"v1_shim":      {shim, false},
		"invalid_time": {invalid, false},
		"truncated":    {valid[:len(valid)-4], false},
		"magic_only":   {[]byte(v4Magic), false},
		"retired_lkw4": {retiredV4Payload("job", "lbm"), false},
		"bad_magic":    {[]byte("LKW3\x01\x02\x03"), false},
		"json_as_v4":   {[]byte(`{"time":1,"metric":"bw","scope":"node","id":0,"value":1}`), false},
		"empty":        {nil, false},
	}
}

// dupGroupsPayload is a v4 payload whose directory names one series
// twice, as no encoder writes it but a foreign one may.
func dupGroupsPayload() []byte {
	p := binary.AppendUvarint([]byte(v4Magic), 4)
	for _, s := range []string{"perfgroup/MEM_DP", "duplicate-key-groups-node", "memory_bandwidth_mbytes_s", "socket"} {
		p = appendString(p, s)
	}
	p = append(p, 1, 0, 2) // one set, the empty one; two groups
	for range 2 {
		p = append(p, 0, 1, 2, 3, 0, 0, 2) // collector, source, metric, scope, id, set, rows
	}
	starts := []int32{0, 2}
	p = appendDeltaColumn(p, []float64{1, 2, 1.5, 3}, starts)
	p = appendDeltaColumn(p, []float64{0, 0, 0, 0}, starts)
	return appendXORColumn(p, []float64{10, 20, 30, 40}, starts)
}

// postV4Body runs one v4 POST /ingest through h's handler.
func postV4Body(h *HTTPSink, body []byte, gz bool) (int, string) {
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
	req.Header.Set("Content-Type", V4ContentType)
	if gz {
		req.Header.Set("Content-Encoding", "gzip")
	}
	w := httptest.NewRecorder()
	h.handleIngest(w, req)
	return w.Code, w.Body.String()
}

// scrapeMetrics is h's /metrics body.
func scrapeMetrics(h *HTTPSink) string {
	w := httptest.NewRecorder()
	h.handleMetrics(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	return w.Body.String()
}

// memoDifferential holds the identity memo to the full ingest path: body
// posted twice to one sink, whose second post may take the memo's hit
// path, must do exactly what it does on a sink that forgets every
// identity before each post — status and response body per post, the
// batches forwarded, then /metrics and every stored window.
func memoDifferential(t *testing.T, body []byte, gz bool) {
	t.Helper()
	memo, ref := fuzzSink(), fuzzSink()
	var fwd [2][]Batch
	for i, h := range []*HTTPSink{memo, ref} {
		h.SetForward(func(b Batch) { fwd[i] = append(fwd[i], b) })
	}
	for post := range 2 {
		ref.mu.Lock()
		ref.identMemo = nil
		ref.mu.Unlock()
		cm, bm := postV4Body(memo, body, gz)
		cr, br := postV4Body(ref, body, gz)
		if cm != cr || bm != br {
			t.Fatalf("post %d: the memoizing sink answered %d %q, a forgetting one %d %q", post, cm, bm, cr, br)
		}
	}
	sinksAgree(t, memo, ref, fwd)
}

// sinksAgree fails unless sinks a and b forwarded the same batches (fwd,
// in that order) and hold the same /metrics, series and windows.
func sinksAgree(t *testing.T, a, b *HTTPSink, fwd [2][]Batch) {
	t.Helper()
	if !reflect.DeepEqual(fwd[0], fwd[1]) {
		t.Fatalf("forwarded batches differ:\n%v\nvs\n%v", fwd[0], fwd[1])
	}
	if ma, mb := scrapeMetrics(a), scrapeMetrics(b); ma != mb {
		t.Fatalf("/metrics differs:\n%s\nvs\n%s", ma, mb)
	}
	keys := a.store.Keys()
	if !reflect.DeepEqual(keys, b.store.Keys()) {
		t.Fatalf("stored series differ: %v vs %v", keys, b.store.Keys())
	}
	for _, k := range keys {
		if wa, wb := a.store.Window(k, 0, -1), b.store.Window(k, 0, -1); !reflect.DeepEqual(wa, wb) {
			t.Fatalf("%v: window %v, want %v", k, wa, wb)
		}
	}
}

// FuzzIngestV4 hammers the binary ingest path: arbitrary bytes under the
// v4 Content-Type must produce 200 or 4xx, never a panic, a 5xx, or a
// partial batch — and any payload that decodes must survive a
// re-encode/re-decode round trip unchanged (the codec is a fixpoint on
// its own output).  Posted twice, it must land as it does without the
// identity memo (memoDifferential).
func FuzzIngestV4(f *testing.F) {
	for _, seed := range fuzzV4Seeds(f) {
		f.Add(seed.Body, seed.Gzip)
	}
	f.Add(dupGroupsPayload(), false)
	f.Fuzz(func(t *testing.T, body []byte, gz bool) {
		memoDifferential(t, body, gz)
		h := fuzzSink()
		before := len(h.store.Keys())
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", V4ContentType)
		if gz {
			req.Header.Set("Content-Encoding", "gzip")
		}
		w := httptest.NewRecorder()
		h.handleIngest(w, req)
		switch c := w.Code; {
		case c == http.StatusOK:
			var resp ingestResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("200 /ingest body is not valid JSON: %v", err)
			}
			if resp.Accepted < 0 {
				t.Fatalf("accepted = %d", resp.Accepted)
			}
		case c >= 400 && c < 500:
			if after := len(h.store.Keys()); after != before {
				t.Fatalf("rejected ingest (status %d) still created %d series", c, after-before)
			}
		default:
			t.Fatalf("/ingest returned %d, want 200 or 4xx", c)
		}

		// Codec fixpoint property (independent of gzip framing): anything
		// that decodes must survive re-encode → re-decode with the same
		// sample count, and a second re-encode must be byte-identical.
		// (A hostile payload may carry duplicate-key groups, which one
		// re-encode canonicalizes into merged groups — order across keys
		// can shift once, but never twice.)
		reencode := func(b *groupBatch) []byte {
			b.internLabels() // the payload validated: interning is allowed now
			samples := b.appendSamples(nil)
			var meta []sampleMeta
			for _, g := range b.groups {
				for r := g.lo; r < g.hi; r++ {
					meta = append(meta, sampleMeta{sentAt: b.sentAts[r]})
				}
			}
			payload, err := new(V4Encoder).encode(nil, samples, meta)
			if err != nil {
				t.Fatalf("re-encode of decoded payload failed: %v", err)
			}
			return payload
		}
		decoded, err := decodeV4Batch(body)
		if err != nil {
			return
		}
		payload := reencode(decoded)
		again, err := decodeV4Batch(payload)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.rows() != decoded.rows() {
			t.Fatalf("round trip changed sample count %d -> %d", decoded.rows(), again.rows())
		}
		if payload2 := reencode(again); !bytes.Equal(payload, payload2) {
			t.Fatalf("canonical re-encode is not a fixpoint:\n% x\nvs\n% x", payload, payload2)
		}
	})
}
