package monitor

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"likwid/internal/monitor/memnet"
)

// testNet carries the package's in-process HTTP: receivers listen on
// its hosts and testClient dials them, so no test takes a kernel port
// that another test (or package) may be reusing.
var (
	testNet    = memnet.New()
	testClient = testNet.Client()
)

// listenTest opens a listener on a fresh testNet host.
func listenTest(t testing.TB) net.Listener {
	t.Helper()
	ln, err := testNet.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// serveTest serves srv on a fresh testNet host until the test ends and
// returns the host's base URL.
func serveTest(t testing.TB, srv *http.Server) string {
	t.Helper()
	ln := listenTest(t)
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return "http://" + ln.Addr().String()
}

func newTestHTTPSink(t *testing.T) (*HTTPSink, *Store) {
	t.Helper()
	store := NewStore(16)
	h, err := ServeHTTPSink(listenTest(t), store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h, store
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHTTPSinkMetricsAndQuery(t *testing.T) {
	h, store := newTestHTTPSink(t)
	batch := goldenBatches()[0]
	store.AppendBatch(batch)
	if err := h.Write(batch); err != nil {
		t.Fatal(err)
	}
	base := "http://" + h.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, `likwid_memory_bandwidth_mbytes_s{scope="socket",id="0"} 13714.3`) {
		t.Errorf("/metrics missing socket bandwidth line:\n%s", body)
	}
	if !strings.Contains(body, `likwid_dp_mflops_s{scope="thread",id="0"} 571.25`) {
		t.Errorf("/metrics missing thread flops line:\n%s", body)
	}

	code, body = get(t, base+"/query?metric=memory_bandwidth_mbytes_s&scope=socket&id=0")
	if code != http.StatusOK {
		t.Fatalf("/query status %d: %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("bad /query JSON %q: %v", body, err)
	}
	if len(resp.Points) != 1 || resp.Points[0].Value != 13714.285 {
		t.Errorf("/query points = %+v, want one 13714.285", resp.Points)
	}

	// The sanitized exposition name resolves to the stored metric too.
	code, body = get(t, base+"/query?metric=likwid_memory_bandwidth_mbytes_s&scope=socket&id=0")
	if code != http.StatusOK {
		t.Fatalf("/query by exposition name status %d", code)
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil || len(resp.Points) != 1 {
		t.Errorf("/query by exposition name = %q (err %v)", body, err)
	}

	if code, _ = get(t, base+"/query"); code != http.StatusBadRequest {
		t.Errorf("/query without metric: status %d, want 400", code)
	}
	if code, _ = get(t, base+"/query?metric=x&scope=galaxy"); code != http.StatusBadRequest {
		t.Errorf("/query with bad scope: status %d, want 400", code)
	}
	if code, _ = get(t, base+"/query?metric=x&from=1.5x"); code != http.StatusBadRequest {
		t.Errorf("/query with bad from: status %d, want 400", code)
	}
	if code, _ = get(t, base+"/query?metric=x&to=nope"); code != http.StatusBadRequest {
		t.Errorf("/query with bad to: status %d, want 400", code)
	}
	if code, body = get(t, base+"/healthz"); code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}
}

// TestHealthzUptime pins /healthz's uptime as the listener's age, a Go
// duration string, not a wall-clock timestamp.
func TestHealthzUptime(t *testing.T) {
	before := time.Now()
	h, _ := newTestHTTPSink(t)
	code, body := get(t, "http://"+h.Addr()+"/healthz")
	elapsed := time.Since(before)
	if code != http.StatusOK {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	var health struct{ Uptime string }
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("bad /healthz JSON %q: %v", body, err)
	}
	up, err := time.ParseDuration(health.Uptime)
	if err != nil {
		t.Fatalf("/healthz uptime %q is not a duration: %v", health.Uptime, err)
	}
	if up < 0 || up > elapsed {
		t.Errorf("/healthz uptime = %v, want within [0, %v]", up, elapsed)
	}
}

func TestHTTPSinkWindowedQuery(t *testing.T) {
	h, store := newTestHTTPSink(t)
	k := Key{Metric: "bw", Scope: ScopeNode, ID: 0}
	for i := 0; i < 6; i++ {
		store.Append(k, Point{Time: float64(i), Value: float64(i * 10)})
	}
	code, body := get(t, "http://"+h.Addr()+"/query?metric=bw&scope=node&from=2&to=4")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 3 || resp.Points[0].Time != 2 || resp.Points[2].Time != 4 {
		t.Errorf("windowed points = %+v, want times 2..4", resp.Points)
	}
}

// ---- /ingest ---------------------------------------------------------------

func postIngest(t *testing.T, base string, body []byte, gzipped bool) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

func gzipped(t testing.TB, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIngestAcceptsPlainAndGzippedBatches(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	payload := []byte(`{"time":0.5,"collector":"c","metric":"bw","scope":"node","id":0,"value":100}
{"time":1.0,"collector":"c","metric":"bw","scope":"node","id":0,"value":200}
`)
	code, body := postIngest(t, base, payload, false)
	if code != http.StatusOK || !strings.Contains(body, `"accepted":2`) {
		t.Fatalf("plain ingest = %d %q, want 200 accepted:2", code, body)
	}
	code, body = postIngest(t, base, gzipped(t, []byte(`{"time":1.5,"collector":"c","metric":"bw","scope":"node","id":0,"value":300}`+"\n")), true)
	if code != http.StatusOK || !strings.Contains(body, `"accepted":1`) {
		t.Fatalf("gzip ingest = %d %q, want 200 accepted:1", code, body)
	}

	k := Key{Metric: "bw", Scope: ScopeNode, ID: 0}
	pts := store.Window(k, 0, -1)
	if len(pts) != 3 || pts[2].Value != 300 {
		t.Fatalf("store after ingest = %+v, want the 3 pushed points", pts)
	}
	// /metrics reflects the ingested series.
	code, body = get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, `likwid_bw{scope="node",id="0"} 300`) {
		t.Errorf("/metrics after ingest = %d %q", code, body)
	}
	// /healthz counts ingested samples.
	if _, body = get(t, base+"/healthz"); !strings.Contains(body, `"ingested":3`) {
		t.Errorf("/healthz = %q, want ingested:3", body)
	}
}

func TestIngestRejectsMalformedPayloads(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	valid := `{"time":1,"collector":"c","metric":"ok","scope":"node","id":0,"value":1}` + "\n"
	tests := []struct {
		name   string
		body   []byte
		gzip   bool
		status int
	}{
		{"not json", []byte("hello\n"), false, http.StatusBadRequest},
		{"truncated object", []byte(`{"time":1,"metric":`), false, http.StatusBadRequest},
		{"bad scope", []byte(`{"time":1,"metric":"bw","scope":"galaxy","id":0,"value":1}` + "\n"), false, http.StatusBadRequest},
		{"empty metric", []byte(`{"time":1,"metric":" ","scope":"node","id":0,"value":1}` + "\n"), false, http.StatusBadRequest},
		{"negative id", []byte(`{"time":1,"metric":"bw","scope":"node","id":-1,"value":1}` + "\n"), false, http.StatusBadRequest},
		{"negative time", []byte(`{"time":-1,"metric":"bw","scope":"node","id":0,"value":1}` + "\n"), false, http.StatusBadRequest},
		{"value overflow", []byte(`{"time":1,"metric":"bw","scope":"node","id":0,"value":1e999}` + "\n"), false, http.StatusBadRequest},
		{"corrupt gzip", []byte("\x1f\x8b\x08garbage"), true, http.StatusBadRequest},
		{"plain body claimed gzip", []byte(valid), true, http.StatusBadRequest},
		{"good then bad is all-or-nothing", []byte(valid + "{bad}\n"), false, http.StatusBadRequest},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			code, body := postIngest(t, base, tt.body, tt.gzip)
			if code != tt.status {
				t.Errorf("status = %d %q, want %d", code, body, tt.status)
			}
		})
	}
	// Nothing leaked into the store, not even from the mixed batch.
	if n := len(store.Keys()); n != 0 {
		t.Errorf("store has %d series after rejected ingests, want 0", n)
	}

	if code, _ := get(t, base+"/ingest"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest = %d, want 405", code)
	}
	req, _ := http.NewRequest(http.MethodPost, base+"/ingest", strings.NewReader("x"))
	req.Header.Set("Content-Encoding", "br")
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("br-encoded ingest = %d, want 415", resp.StatusCode)
	}
}

// TestIngestWithoutStoreIsNotImplemented: /metrics, /query and /ingest
// all read the store, so a sink without one is refused at construction
// (the name dates from when such a sink answered /ingest with 501), and
// the refused sink's listener is closed with it.
func TestIngestWithoutStoreIsNotImplemented(t *testing.T) {
	ln := listenTest(t)
	h, err := ServeHTTPSink(ln, nil)
	if err == nil {
		_ = h.Close()
		t.Fatal("ServeHTTPSink without a store succeeded, want an error")
	}
	if _, err := testNet.Dial(context.Background(), "tcp", ln.Addr().String()); err == nil {
		t.Error("a sink refused for want of a store left its listener open")
	}
}

func TestIngestSourceBecomesKeyDimension(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	payload := []byte(`{"time":1,"collector":"c","source":"nodeA-7","metric":"bw","scope":"node","id":0,"value":10}
{"time":1,"collector":"c","source":"nodeB-9","metric":"bw","scope":"node","id":0,"value":20}
`)
	if code, body := postIngest(t, base, payload, false); code != http.StatusOK {
		t.Fatalf("ingest = %d %q", code, body)
	}
	a := store.Window(Key{Source: "nodeA-7", Metric: "bw", Scope: ScopeNode, ID: 0}, 0, -1)
	b := store.Window(Key{Source: "nodeB-9", Metric: "bw", Scope: ScopeNode, ID: 0}, 0, -1)
	if len(a) != 1 || len(b) != 1 || a[0].Value != 10 || b[0].Value != 20 {
		t.Errorf("sourced series = %+v / %+v, want one point each", a, b)
	}
	if pts := store.Window(Key{Metric: "bw", Scope: ScopeNode, ID: 0}, 0, -1); pts != nil {
		t.Errorf("sourceless series exists with %d points, want none", len(pts))
	}
	// The metric name is never mangled: no "SOURCE/metric" series appears.
	if pts := store.Window(Key{Metric: "nodeA-7/bw", Scope: ScopeNode, ID: 0}, 0, -1); pts != nil {
		t.Errorf("prefix-mangled series exists with %d points, want none", len(pts))
	}
	// /metrics carries the source as a label.
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, `likwid_bw{source="nodeA-7",scope="node",id="0"} 10`) {
		t.Errorf("/metrics = %d %q, want a source-labelled bw line", code, body)
	}
}

// TestIngestKeepsArbitrarySourceField pins the source field's contract:
// an explicit source field is stored verbatim even when it is not a
// plain label (a pre-refactor agent was free to configure any string).
func TestIngestKeepsArbitrarySourceField(t *testing.T) {
	h, store := newTestHTTPSink(t)
	payload := []byte(`{"time":1,"collector":"c","source":"rack1 node7","metric":"bw","scope":"node","id":0,"value":10}` + "\n")
	if code, body := postIngest(t, "http://"+h.Addr(), payload, false); code != http.StatusOK {
		t.Fatalf("ingest = %d %q, want the odd-but-v1-legal source accepted", code, body)
	}
	k := Key{Source: "rack1 node7", Metric: "bw", Scope: ScopeNode, ID: 0}
	if p, ok := store.Latest(k); !ok || p.Value != 10 {
		t.Fatalf("Latest = %+v (%v), want the sample under its verbatim source", p, ok)
	}
}

// TestIngestMixedVersionsLandOnSameKeys is the contract across wire
// formats: two JSON-lines records and a v4 binary payload of the same
// series must all land on the same store key, so one Window query
// stitches history pushed by a mixed-format fleet.  The v4 leg reuses
// each case's second record re-encoded on the binary wire.  A metric
// name is stored verbatim: the retired v1 wire's "SOURCE/metric"
// prefix is no source boundary, so a sourceless "cpi/min" stays one
// sourceless metric.
func TestIngestMixedVersionsLandOnSameKeys(t *testing.T) {
	tests := []struct {
		name          string
		first, second string // the two JSON-lines records, at times 1 and 2
		key           Key
		times         []float64
		values        []float64
		listLen       int
	}{
		{
			name:   "source field lands on the source key",
			first:  `{"time":1,"collector":"c","source":"nodeA","metric":"bw","scope":"node","id":0,"value":10}`,
			second: `{"time":2,"collector":"c","source":"nodeA","metric":"bw","scope":"node","id":0,"value":20}`,
			key:    Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, ID: 0},
			times:  []float64{1, 2},
			values: []float64{10, 20},
		},
		{
			name:   "reserved namespace is a metric, not a source",
			first:  `{"time":1,"collector":"c","metric":"topo/socket_hw_threads","scope":"node","id":0,"value":6}`,
			second: `{"time":2,"collector":"c","metric":"topo/socket_hw_threads","scope":"node","id":0,"value":6}`,
			key:    Key{Metric: "topo/socket_hw_threads", Scope: ScopeNode, ID: 0},
			times:  []float64{1, 2},
			values: []float64{6, 6},
		},
		{
			name:   "slash after an invalid label stays in the metric",
			first:  `{"time":1,"collector":"c","metric":"DP MFlops/s","scope":"node","id":0,"value":7}`,
			second: `{"time":2,"collector":"c","metric":"DP MFlops/s","scope":"node","id":0,"value":8}`,
			key:    Key{Metric: "DP MFlops/s", Scope: ScopeNode, ID: 0},
			times:  []float64{1, 2},
			values: []float64{7, 8},
		},
		{
			name:   "sourceless roll-up keeps its slash",
			first:  `{"time":1,"collector":"c","metric":"cpi/min","scope":"node","id":0,"value":0.5}`,
			second: `{"time":2,"collector":"c","metric":"cpi/min","scope":"node","id":0,"value":0.6}`,
			key:    Key{Metric: "cpi/min", Scope: ScopeNode, ID: 0},
			times:  []float64{1, 2},
			values: []float64{0.5, 0.6},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h, store := newTestHTTPSink(t)
			base := "http://" + h.Addr()
			if code, body := postIngest(t, base, []byte(tt.first+"\n"), false); code != http.StatusOK {
				t.Fatalf("first ingest = %d %q", code, body)
			}
			if code, body := postIngest(t, base, []byte(tt.second+"\n"), false); code != http.StatusOK {
				t.Fatalf("second ingest = %d %q", code, body)
			}
			// v4 leg: the same record on the binary wire at time 3.
			var js jsonSample
			if err := json.Unmarshal([]byte(tt.second), &js); err != nil {
				t.Fatal(err)
			}
			scope, err := ParseScope(js.Scope)
			if err != nil {
				t.Fatal(err)
			}
			payload := encodeV4(t, []wireSample{{
				Sample:    Sample{Source: js.Source, Metric: js.Metric, Scope: scope, ID: js.ID, Time: 3, Value: js.Value},
				Collector: js.Collector,
			}})
			if code, body := postIngest4(t, base, payload, false); code != http.StatusOK {
				t.Fatalf("v4 ingest = %d %q", code, body)
			}
			wantTimes := append(append([]float64{}, tt.times...), 3)
			wantValues := append(append([]float64{}, tt.values...), tt.values[len(tt.values)-1])
			if n := len(store.Keys()); n != 1 {
				t.Fatalf("store has %d series, want all three payloads on one key (keys: %+v)", n, store.Keys())
			}
			pts := store.Window(tt.key, 0, -1)
			if len(pts) != len(wantTimes) {
				t.Fatalf("window = %+v, want %d stitched points", pts, len(wantTimes))
			}
			for i, p := range pts {
				if p.Time != wantTimes[i] || p.Value != wantValues[i] {
					t.Errorf("point %d = %+v, want t=%v v=%v", i, p, wantTimes[i], wantValues[i])
				}
			}
		})
	}
}

// TestQuerySourceParameter covers the /query source dimension: exact
// selection, default local-only, and the '*' wildcard fanning out one
// response entry per source.
func TestQuerySourceParameter(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	store.Append(Key{Metric: "bw", Scope: ScopeNode, ID: 0}, Point{Time: 1, Value: 1})
	store.Append(Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode, ID: 0}, Point{Time: 1, Value: 10})
	store.Append(Key{Source: "nodeB", Metric: "bw", Scope: ScopeNode, ID: 0}, Point{Time: 1, Value: 20})

	// Exact source.
	code, body := get(t, base+"/query?metric=bw&scope=node&source=nodeA")
	if code != http.StatusOK {
		t.Fatalf("/query source=nodeA status %d: %s", code, body)
	}
	var one queryResponse
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	if one.Source != "nodeA" || len(one.Points) != 1 || one.Points[0].Value != 10 {
		t.Errorf("source=nodeA response = %+v, want nodeA's point", one)
	}

	// No source parameter: local series only.
	code, body = get(t, base+"/query?metric=bw&scope=node")
	if code != http.StatusOK {
		t.Fatalf("/query local status %d: %s", code, body)
	}
	one = queryResponse{}
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	if one.Source != "" || len(one.Points) != 1 || one.Points[0].Value != 1 {
		t.Errorf("local response = %+v, want the sourceless point", one)
	}

	// Wildcard: one entry per source, local included, sorted by source.
	code, body = get(t, base+"/query?metric=bw&scope=node&source=*")
	if code != http.StatusOK {
		t.Fatalf("/query source=* status %d: %s", code, body)
	}
	var many querySeriesResponse
	if err := json.Unmarshal([]byte(body), &many); err != nil {
		t.Fatal(err)
	}
	if len(many.Series) != 3 {
		t.Fatalf("source=* returned %d series, want 3: %s", len(many.Series), body)
	}
	wantSources := []string{"", "nodeA", "nodeB"}
	for i, s := range many.Series {
		if s.Source != wantSources[i] {
			t.Errorf("series %d source = %q, want %q", i, s.Source, wantSources[i])
		}
	}

	// Prefix wildcard narrows the fleet.
	code, body = get(t, base+"/query?metric=bw&scope=node&source=node*")
	if code != http.StatusOK {
		t.Fatalf("/query source=node* status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &many); err != nil {
		t.Fatal(err)
	}
	if len(many.Series) != 2 {
		t.Errorf("source=node* returned %d series, want 2: %s", len(many.Series), body)
	}
}

func TestIngestOutOfOrderTimesStayQueryable(t *testing.T) {
	// An agent restart resets its simulated clock: the receiver's series
	// sees t=100,101 then t=0,1.  Window must still return time-ordered
	// points.
	h, store := newTestHTTPSink(t)
	payload := []byte(`{"time":100,"metric":"bw","scope":"node","id":0,"value":1}
{"time":101,"metric":"bw","scope":"node","id":0,"value":2}
{"time":0,"metric":"bw","scope":"node","id":0,"value":3}
{"time":1,"metric":"bw","scope":"node","id":0,"value":4}
`)
	if code, body := postIngest(t, "http://"+h.Addr(), payload, false); code != http.StatusOK {
		t.Fatalf("ingest = %d %q", code, body)
	}
	pts := store.Window(Key{Metric: "bw", Scope: ScopeNode, ID: 0}, 0, -1)
	if len(pts) != 4 {
		t.Fatalf("window = %+v, want 4 points", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time < pts[i-1].Time {
			t.Errorf("window not time-ordered at %d: %v after %v", i, pts[i].Time, pts[i-1].Time)
		}
	}
}

// TestHTTPSinkHandleMountsExtraEndpoints covers the extension hook the
// alert engine uses for /alerts and /rules: handlers mounted after the
// server is already serving must work.
func TestHTTPSinkHandleMountsExtraEndpoints(t *testing.T) {
	h, _ := newTestHTTPSink(t)
	h.Handle("/extra", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		_, _ = io.WriteString(w, "mounted")
	}))
	code, body := get(t, "http://"+h.Addr()+"/extra")
	if code != http.StatusOK || body != "mounted" {
		t.Fatalf("GET /extra = %d %q, want 200 \"mounted\"", code, body)
	}
	// The built-in endpoints are untouched.
	if code, _ := get(t, "http://"+h.Addr()+"/healthz"); code != http.StatusOK {
		t.Fatalf("GET /healthz = %d after Handle, want 200", code)
	}
}

// TestHTTPSinkCloseReleasesPort: Close gives the listener back at once,
// also for a sink closed before its serve goroutine has run, so a
// restart (or a node.New that failed part way) can listen on it again.
// The listener is the sink's own testNet host, which no other test can
// take, so a dial that gets through was answered by this sink.
func TestHTTPSinkCloseReleasesPort(t *testing.T) {
	store := NewStore(1)
	held := 0
	for i := 0; i < 300; i++ {
		ln := listenTest(t)
		h, err := ServeHTTPSink(ln, store)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if c, err := testNet.Dial(context.Background(), "tcp", ln.Addr().String()); err == nil {
			c.Close()
			held++
		}
	}
	if held > 0 {
		t.Fatalf("%d of 300 closed sinks still held their listener", held)
	}
}

// TestMetricsListsSeriesHandedToTheSink: /metrics reads the store, at
// each series' newest point, but lists only the series the sink was
// handed — by Write or by /ingest.  A series appended straight into the
// store, as the alert engine writes its alert/* histories, stays off.
func TestMetricsListsSeriesHandedToTheSink(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	local := Sample{Metric: "bw", Scope: ScopeNode, Time: 2, Value: 20}
	store.AppendBatch(Batch{Samples: []Sample{local}})
	store.Append(local.Key(), Point{Time: 1, Value: 10}) // late: not the newest
	if err := h.Write(Batch{Samples: []Sample{local}}); err != nil {
		t.Fatal(err)
	}
	pushed := []byte(`{"time":5,"source":"nodeA","metric":"flops","scope":"socket","id":1,"value":3}
{"time":4,"source":"nodeA","metric":"flops","scope":"socket","id":1,"value":9}
`)
	if code, body := postIngest(t, base, pushed, false); code != http.StatusOK {
		t.Fatalf("ingest = %d %q", code, body)
	}
	store.Append(Key{Metric: "alert/hot", Scope: ScopeNode}, Point{Time: 3, Value: 1})
	// A Write of a series the store does not hold shows nothing.
	if err := h.Write(Batch{Samples: []Sample{{Metric: "ghost", Scope: ScopeNode, Time: 9, Value: 1}}}); err != nil {
		t.Fatal(err)
	}
	want := `likwid_bw{scope="node",id="0"} 20 2.000000` + "\n" +
		`likwid_flops{source="nodeA",scope="socket",id="1"} 3 5.000000` + "\n"
	if _, body := get(t, base+"/metrics"); body != want {
		t.Errorf("/metrics =\n%s\nwant\n%s", body, want)
	}
	// A newer append moves an exposed series' line, however it arrives.
	store.Append(local.Key(), Point{Time: 6, Value: 60})
	if _, body := get(t, base+"/metrics"); !strings.Contains(body, `likwid_bw{scope="node",id="0"} 60 6.000000`) {
		t.Errorf("/metrics after a newer append = %q, want value 60 at t=6", body)
	}
}

// TestMetricsRacesIngestAndWrite runs v4 /ingest POSTs (memo misses,
// then hits), local Writes and /metrics scrapes against one sink at
// once.  /metrics takes no lock of the sink's, so -race is the check;
// the final scrape lists every series at its newest point.
func TestMetricsRacesIngestAndWrite(t *testing.T) {
	h, store := newTestHTTPSink(t)
	const posts, writes = 8, 40
	var wg sync.WaitGroup
	for p := range 2 {
		rows := wideRows(t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range posts {
				for r := range rows {
					rows[r].Time = float64(1 + i)
				}
				body := encodeV4(t, rows)
				if code, resp := postV4Body(h, body, false); code != http.StatusOK {
					t.Errorf("poster %d post %d = %d %q", p, i, code, resp)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := range writes {
			b := Batch{Samples: []Sample{{Metric: "local", Scope: ScopeNode, Time: float64(i), Value: float64(i)}}}
			store.AppendBatch(b)
			if err := h.Write(b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for range writes {
			_ = scrapeMetrics(h)
		}
	}()
	wg.Wait()
	body := scrapeMetrics(h)
	if n, want := strings.Count(body, "\n"), len(wideRows(t))+1; n != want {
		t.Errorf("final scrape has %d lines, want %d", n, want)
	}
	if want := fmt.Sprintf(`likwid_local{scope="node",id="0"} %d %d.000000`, writes-1, writes-1); !strings.Contains(body, want) {
		t.Errorf("final scrape lacks %q", want)
	}
	if want := fmt.Sprintf(`id="0"} 1000 %d.000000`, posts); !strings.Contains(body, want) {
		t.Errorf("final scrape lacks the last post's time %d:\n%.300s", posts, body)
	}
}
