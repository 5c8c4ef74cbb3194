package monitor

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// refDecodeIngest is the JSON-lines decoder /ingest had before its
// scanner, kept as the reference FuzzIngestJSON holds decodeIngest to:
// every record through encoding/json, streamed from r, its labels taken
// in map order.
func refDecodeIngest(r io.Reader, b *groupBatch) error {
	dec := json.NewDecoder(r)
	for i := 0; ; i++ {
		var js jsonSample
		if err := dec.Decode(&js); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("record %d: %w", i, err)
		}
		g := sampleGroup{key: Key{Source: js.Source, Metric: js.Metric}, lo: len(b.times), hi: len(b.times) + 1}
		b.times = append(b.times, js.Time)
		b.sentAts = append(b.sentAts, js.SentAt)
		b.values = append(b.values, js.Value)
		first := len(b.pairs)
		for name, value := range js.Labels {
			b.pairs = append(b.pairs, Label{Name: name, Value: value})
		}
		g.pairs = b.pairs[first:len(b.pairs):len(b.pairs)]
		if err := b.check(&g, js.Scope, int64(js.ID)); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		b.groups = append(b.groups, g)
	}
}

// badLabelsInOneRecord reports whether a record of body, as encoding/json
// decodes the records up to the first that fails, holds two or more
// labels checkLabel refuses: the reference names whichever its map
// yields first.
func badLabelsInOneRecord(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	for {
		var js jsonSample
		if dec.Decode(&js) != nil {
			return false
		}
		bad := 0
		for name, value := range js.Labels {
			if checkLabel(name, value) != nil {
				bad++
			}
		}
		if bad > 1 {
			return true
		}
	}
}

// ingestJSONSeeds are FuzzIngestJSON's seeds: records the scanner takes,
// one for each way a record leaves it for encoding/json, and records
// that either path rejects.
var ingestJSONSeeds = []string{
	// The form appendJSONLine writes.
	`{"time":0.5,"sent_at":100.5,"collector":"perfgroup/MEM_DP","source":"nodeA-7","labels":{"cluster":"emmy","job":"lbm"},"metric":"dp_mflops_s","scope":"thread","id":1,"value":571.25}` + "\n" +
		`{"time":1,"collector":"c","metric":"bw","scope":"node","id":0,"value":-1.5e-8}` + "\n",
	`{"value":1,"id":0,"scope":"node","metric":"bw","time":2}`, // any key order, no newline at the end
	`{"time":-0,"metric":"m","scope":"node","id":-0,"value":1E+21}` + "\n",
	"\n\r\n \t" + `{"time":1,"metric":"bw","scope":"node","id":0,"value":1}` + "\n\n",
	// Each way out of the scanner.
	`{"time":1,` + "\n" + `"metric":"bw","scope":"node","id":0,"value":1}` + "\n", // a record split over lines
	`{"time":1,"metric":"a","scope":"node","id":0,"value":1}{"time":1,"metric":"b","scope":"node","id":0,"value":2}` + "\n",
	`{"time":1,"collector":"\u003cscript\u003e","metric":"x\u003ey","scope":"node","id":0,"value":1}` + "\n", // '<' as the suite writes it
	`{"time":1,"collector":"<script>","metric":"x>y","scope":"node","id":0,"value":1}` + "\n",
	`{"time":1,"metric":"b\"w\\n","scope":"node","id":0,"value":1}` + "\n",
	`{"time":1,"source":"nödeA","labels":{"job":"日本"},"metric":"bw","scope":"node","id":0,"value":1}` + "\n",
	`{"Time":1,"METRIC":"bw","scope":"node","id":0,"value":1}` + "\n",
	`{"time":1,"time":2,"metric":"bw","scope":"node","id":0,"value":1,"value":3}` + "\n",
	`{"time":1,"labels":{"job":"a"},"metric":"bw","scope":"node","id":0,"value":1,"labels":{"job":"b"}}` + "\n",
	`{"time":1,"labels":{"job":"a"},"metric":"bw","scope":"node","id":0,"value":1,"labels":{"job":"a"}}` + "\n",
	`{"time":1,"labels":{"job":"a","job":"b"},"metric":"bw","scope":"node","id":0,"value":1}` + "\n",
	`{"time":1,"labels":null,"metric":"bw","scope":"node","id":0,"value":1}` + "\n",
	`{"time":1,"labels":{"job":null},"metric":"bw","scope":"node","id":0,"value":1}` + "\n",
	`{"time":1,"metric":"bw","scope":"node","id":1.5,"value":1}` + "\n",
	`{"time":1,"metric":"bw","scope":"node","id":1e2,"value":1}` + "\n",
	`{"time":1,"metric":"bw","scope":"node","id":99999999999999999999,"value":1}` + "\n",
	`{"time":1,"metric":"bw","scope":"node","id":"0","value":1}` + "\n",
	`{"time":1,"metric":"bw","scope":"node","id":0,"value":1e999}` + "\n",
	`{"time":01,"metric":"bw","scope":"node","id":0,"value":.5}` + "\n",
	`{"time": 1, "metric": "bw", "scope": "node", "id": 0, "value": 1}` + "\r\n",
	`{"time":1,"extra":[1,{"a":null}],"metric":"bw","scope":"node","id":0,"value":1}` + "\n",
	`{}`, `null`, `[1]`, `1`, `"x"`, `{"time":1,"metric":"bw"`, `{"time":1}}`,
	// Rejected after decoding, by either path.
	`{"time":1,"labels":{"bad name":"x","1st":"y"},"metric":"bw","scope":"node","id":0,"value":1}` + "\n",
	`{"time":1,"labels":{"a":"1","b":"1","c":"1","d":"1","e":"1","f":"1","g":"1","h":"1","i":"1","j":"1","k":"1","l":"1","m":"1","n":"1","o":"1","p":"1","q":"1"},"metric":"bw","scope":"node","id":0,"value":1}` + "\n",
	`{"time":1,"metric":"ok","scope":"node","id":0,"value":1}` + "\n" + `{"time":1,"metric":"bw","scope":"galaxy","id":0,"value":1}` + "\n",
	`{"time":-1,"metric":"bw","scope":"node","id":-1,"value":1}` + "\n",
	"",
}

// FuzzIngestJSON holds /ingest's JSON-lines path to refDecodeIngest: a
// body posted to a sink must do exactly what the reference's decoding of
// it does on another — status and response body, the batches
// forwarded, then /metrics and every stored window.  Only a 400 text the
// reference takes from map order (two bad labels in one record) may
// differ.
func FuzzIngestJSON(f *testing.F) {
	for _, seed := range ingestJSONSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		sink, ref := fuzzSink(), fuzzSink()
		var fwd [2][]Batch
		for i, h := range []*HTTPSink{sink, ref} {
			h.SetForward(func(b Batch) { fwd[i] = append(fwd[i], b) })
		}
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		got := httptest.NewRecorder()
		sink.handleIngest(got, req)

		var b groupBatch
		err := refDecodeIngest(bytes.NewReader(body), &b)
		want := httptest.NewRecorder()
		ref.ingest(want, &b, nil, nil, err)

		if got.Code != want.Code {
			t.Fatalf("status %d %q, the reference %d %q", got.Code, got.Body, want.Code, want.Body)
		}
		if got.Body.String() != want.Body.String() && !(got.Code == http.StatusBadRequest && badLabelsInOneRecord(body)) {
			t.Fatalf("body %q, the reference %q", got.Body, want.Body)
		}
		sinksAgree(t, sink, ref, fwd)
	})
}

// canonicalLines are the JSON lines the suite writes for every
// FuzzJSONLine seed it can encode, and every line of the push and JSONL
// sink goldens.
func canonicalLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, s := range jsonLineSeeds {
		sm := Sample{Source: s.source, Metric: s.metric, Scope: Scope(s.scope), ID: s.id, Time: s.tm, Value: s.v}
		if s.lname != "" {
			sm.Labels = Labels{set: &labelSet{pairs: []Label{{s.lname, s.lvalue}, {s.lname + "_", s.lvalue}}}}
		}
		if line, err := appendJSONLine(nil, sm, s.collector, s.sentAt); err == nil {
			lines = append(lines, string(line))
		}
	}
	for _, file := range []string{"push_batch.golden", "sink_jsonl.golden"} {
		data, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.SplitAfter(string(data), "\n") {
			if strings.HasPrefix(line, "{") {
				lines = append(lines, line)
			}
		}
	}
	return lines
}

// TestCanonicalLinesTakeTheScanner: every line the suite writes for
// names of printable ASCII — every golden line — is scanned, not handed
// to encoding/json, and scans to the values encoding/json decodes.  A
// line that escapes a character or carries a non-ASCII byte goes to
// encoding/json.
func TestCanonicalLinesTakeTheScanner(t *testing.T) {
	for _, line := range canonicalLines(t) {
		plain := !strings.ContainsFunc(strings.TrimSuffix(line, "\n"), func(r rune) bool { return r < ' ' || r > '~' || r == '\\' })
		var (
			b  groupBatch
			js jsonSample
		)
		end, ok := scanJSONRecord(line, 0, &js, &b)
		if ok != plain {
			t.Errorf("scanned = %v, want %v: %q", ok, plain, line)
			continue
		}
		if !ok {
			continue
		}
		if end != len(line)-1 {
			t.Errorf("scan ended at %d of %d: %q", end, len(line), line)
		}
		var want jsonSample
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatal(err)
		}
		for _, p := range b.pairs {
			if js.Labels == nil {
				js.Labels = map[string]string{}
			}
			js.Labels[p.Name] = p.Value
		}
		for _, f := range [][2]float64{{js.Time, want.Time}, {js.SentAt, want.SentAt}, {js.Value, want.Value}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Errorf("scanned %v, encoding/json %v: %q", f[0], f[1], line)
			}
		}
		if !reflect.DeepEqual(js, want) {
			t.Errorf("scanned %+v, encoding/json %+v", js, want)
		}
	}
}

// TestIngestOversizedJSONIs413: a JSON-lines body is read whole before
// any record is parsed, as a v4 one is, so a body over either limit is a
// 413 even when a malformed record comes before the limit.
func TestIngestOversizedJSONIs413(t *testing.T) {
	h := fuzzSink()
	h.maxDecompressed = 1024
	before := len(h.store.Keys())
	junk := "not json\n"
	for _, c := range []struct {
		name string
		body []byte
		gz   bool
	}{
		{"decompressed", gzipped(t, []byte(junk+strings.Repeat("\n", 1024))), true},
		{"compressed", []byte(junk + strings.Repeat(" ", maxIngestCompressed)), false},
	} {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(c.body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		if c.gz {
			req.Header.Set("Content-Encoding", "gzip")
		}
		w := httptest.NewRecorder()
		h.handleIngest(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d %q, want 413", c.name, w.Code, w.Body)
		}
	}
	if after := len(h.store.Keys()); after != before {
		t.Errorf("rejected bodies created %d series", after-before)
	}
}

// TestIngestGzipReadersSurviveFailures: the pooled gzip readers go back
// to the pool from every path, so a request after a bad header, a
// corrupt stream or an oversized body inflates as if it came first.
func TestIngestGzipReadersSurviveFailures(t *testing.T) {
	h := fuzzSink()
	h.maxDecompressed = 1024
	record := []byte(`{"time":1,"metric":"gz","scope":"node","id":0,"value":2}` + "\n")
	good := gzipped(t, record)
	corrupt := bytes.Clone(good)
	corrupt[len(corrupt)-5] ^= 0xff // the CRC
	for i, c := range []struct {
		body []byte
		want int
	}{
		{good, http.StatusOK},
		{[]byte("\x1f\x8bgarbage"), http.StatusBadRequest},
		{good, http.StatusOK},
		{corrupt, http.StatusBadRequest},
		{good, http.StatusOK},
		{gzipped(t, bytes.Repeat(record, 64)), http.StatusRequestEntityTooLarge},
		{good, http.StatusOK},
	} {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(c.body))
		req.Header.Set("Content-Encoding", "gzip")
		w := httptest.NewRecorder()
		h.handleIngest(w, req)
		if w.Code != c.want {
			t.Errorf("post %d: %d %q, want %d", i, w.Code, w.Body, c.want)
		}
	}
	if n := h.store.Len(Key{Metric: "gz", Scope: ScopeNode}); n != 4 {
		t.Errorf("store holds %d points, want the 4 good posts'", n)
	}
}

// TestIngestConcurrentPostsShareThePools: concurrent posts, gzipped and
// plain, JSON lines and v4, share the pooled read buffers and gzip
// readers; each lands whole (run with -race).
func TestIngestConcurrentPostsShareThePools(t *testing.T) {
	h := &HTTPSink{store: NewStore(64)}
	const workers, posts = 4, 50
	type post struct {
		body        []byte
		contentType string
		gz          bool
	}
	bodies := make([][]post, workers)
	for w := range workers {
		for i := range posts {
			sm := Sample{Source: fmt.Sprintf("w%d", w), Metric: "bw", Scope: ScopeNode, Time: float64(i + 1), Value: float64(i)}
			p := post{contentType: "application/x-ndjson", gz: i%2 == 1}
			if i%3 == 2 {
				p.body, p.contentType = encodeV4(t, []wireSample{{Sample: sm}}), V4ContentType
			} else {
				p.body, _ = appendJSONLine(nil, sm, "c", 0)
			}
			if p.gz {
				p.body = gzipped(t, p.body)
			}
			bodies[w] = append(bodies[w], p)
		}
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range bodies[w] {
				req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(p.body))
				req.Header.Set("Content-Type", p.contentType)
				if p.gz {
					req.Header.Set("Content-Encoding", "gzip")
				}
				rec := httptest.NewRecorder()
				h.handleIngest(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("worker %d post %d: %d %q", w, i, rec.Code, rec.Body)
				}
			}
		}()
	}
	wg.Wait()
	for w := range workers {
		k := Key{Source: fmt.Sprintf("w%d", w), Metric: "bw", Scope: ScopeNode}
		pts := h.store.Window(k, 0, -1)
		if len(pts) != posts {
			t.Fatalf("%v holds %d points, want %d", k, len(pts), posts)
		}
		for i, p := range pts {
			if p.Time != float64(i+1) || p.Value != float64(i) {
				t.Fatalf("%v point %d = %+v", k, i, p)
			}
		}
	}
}
