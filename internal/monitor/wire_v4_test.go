package monitor

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// wireSample is one fixture row: a sample plus what a push sink carries
// alongside it onto the wire.
type wireSample struct {
	Sample
	Collector string
	SentAt    float64
}

// encodeV4 renders fixture rows through the push sink's encoder.
func encodeV4(tb testing.TB, rows []wireSample) []byte {
	tb.Helper()
	samples, meta := rowsOf(rows)
	payload, err := new(V4Encoder).encode(nil, samples, meta)
	if err != nil {
		tb.Fatalf("v4 encode: %v", err)
	}
	return payload
}

// decodeV4Batch decodes a payload into a fresh batch.
func decodeV4Batch(payload []byte) (*groupBatch, error) {
	b := &groupBatch{}
	return b, decodeV4(payload, b)
}

// v4WireSamples is a fixture exercising grouping (two series), labels,
// sent_at stamps and irregular values.
func v4WireSamples(tb testing.TB) []wireSample {
	lbm, err := MakeLabels(map[string]string{"job": "lbm", "rack": "r1"})
	if err != nil {
		tb.Fatal(err)
	}
	a := Sample{Source: "nodeA-7", Labels: lbm, Metric: "dp_mflops_s", Scope: ScopeThread}
	b := Sample{Source: "nodeB-9", Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket}
	at := func(s Sample, t, v float64) Sample { s.Time, s.Value = t, v; return s }
	const c = "perfgroup/MEM_DP"
	return []wireSample{
		{at(a, 0.5, 571.25), c, 100},
		{at(a, 1.0, 570.75), c, 100},
		{at(a, 1.5, 571.25), c, 100.5},
		{at(b, 0.5, 13714.285), c, 100},
		{at(b, 1.0, 13710), c, 100},
	}
}

// TestV4RoundTrip pins the codec end to end: encode → decode returns the
// rows in order with the exact identities, times, values, label pairs
// and sent_at stamps — grouped, and with nothing interned.
func TestV4RoundTrip(t *testing.T) {
	in := v4WireSamples(t)
	before := InternedLabelSets()
	b, err := decodeV4Batch(encodeV4(t, in))
	if err != nil {
		t.Fatalf("decodeV4: %v", err)
	}
	if got := InternedLabelSets(); got != before {
		t.Errorf("decode interned %d label sets, want none before the payload is accepted", got-before)
	}
	// Grouping reorders across series (group-major) but keeps arrival
	// order within a series; the fixture is already group-major, so the
	// decode must match it one to one.
	if len(b.groups) != 2 || b.rows() != len(in) || len(b.times) != len(in) ||
		len(b.sentAts) != len(in) || len(b.values) != len(in) {
		t.Fatalf("decode = %d groups / %d rows / %d+%d+%d column entries, want 2 groups of %d rows",
			len(b.groups), b.rows(), len(b.times), len(b.sentAts), len(b.values), len(in))
	}
	row := 0
	for _, g := range b.groups {
		if g.key.Labels != (Labels{}) {
			t.Errorf("group %+v has interned labels, want unset (decode must not intern)", g)
		}
		for r := g.lo; r < g.hi; r++ {
			want := in[row]
			row++
			if k := want.Key(); g.key.Source != k.Source || g.key.Metric != k.Metric || g.key.Scope != k.Scope || g.key.ID != k.ID ||
				b.times[r] != want.Time || b.values[r] != want.Value || b.sentAts[r] != want.SentAt {
				t.Errorf("row %d = %+v t=%v v=%v sent_at=%v, want the encoding of %+v",
					r, g, b.times[r], b.values[r], b.sentAts[r], want)
			}
			if encodePairs(g.pairs) != want.Labels.String() {
				t.Errorf("row %d labels = %v, want %v", r, g.pairs, want.Labels)
			}
		}
	}

	// The exported inverse: samples back, labels interned.
	samples := make([]Sample, len(in))
	for i, r := range in {
		samples[i] = r.Sample
	}
	payload, err := new(V4Encoder).Encode(nil, samples)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeV4Samples(payload, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, samples) {
		t.Errorf("DecodeV4Samples(Encode(samples)) = %+v, want %+v", got, samples)
	}
}

// TestV4ColumnCodecsRoundTripRandom sweeps the two column codecs with
// random data: the delta-of-delta timestamp codec must be lossless for
// arbitrary float64s (it runs over bit patterns, not values), and the
// Gorilla XOR value codec likewise.
func TestV4ColumnCodecsRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(5) {
			case 0:
				vals[i] = float64(i) * 0.1 // regular ramp
			case 1:
				vals[i] = math.Float64frombits(rng.Uint64()) // arbitrary bits (incl. NaN)
			case 2:
				vals[i] = 0
			case 3:
				vals[i] = -rng.Float64() * 1e12
			default:
				vals[i] = rng.NormFloat64()
			}
		}
		got, err := decodeDeltaColumn(columnBody(t, appendDeltaColumn(nil, vals)), n, nil)
		if err != nil {
			t.Fatalf("trial %d: delta decode: %v", trial, err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("trial %d: delta entry %d = %x, want %x",
					trial, i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
		got, err = decodeXORColumn(columnBody(t, appendXORColumn(nil, vals)), n, nil)
		if err != nil {
			t.Fatalf("trial %d: xor decode: %v", trial, err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("trial %d: xor entry %d = %x, want %x",
					trial, i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
	}
}

// columnBody strips (and checks) a column's uvarint length prefix.
func columnBody(t *testing.T, col []byte) []byte {
	t.Helper()
	n, sz := binary.Uvarint(col)
	if sz <= 0 || int(n) != len(col)-sz {
		t.Fatalf("column prefix announces %d bytes (prefix size %d), column holds %d", n, sz, len(col)-sz)
	}
	return col[sz:]
}

// TestV4DecodeRejectsMalformed is the all-or-nothing contract on the
// binary path: structural damage and invalid record content both reject
// the whole payload.
func TestV4DecodeRejectsMalformed(t *testing.T) {
	valid := encodeV4(t, v4WireSamples(t))
	bad := map[string][]byte{
		"empty":          {},
		"wrong magic":    []byte("LKW3garbage"),
		"json body":      []byte(`{"time":1,"metric":"bw","scope":"node","id":0,"value":1}`),
		"truncated":      valid[:len(valid)-3],
		"trailing bytes": append(append([]byte{}, valid...), 0xAA),
		"magic only":     []byte("LKW4"),
	}
	for name, payload := range bad {
		if _, err := decodeV4Batch(payload); err == nil {
			t.Errorf("%s: decodeV4 succeeded, want error", name)
		}
	}

	// Invalid record content: NaN value, negative time, bad scope, empty
	// metric, a label no validator would have interned — the encoder does
	// not validate (it is fed already-validated samples), so encoding
	// them exercises the decoder's screens.
	badLabels := Labels{set: &labelSet{pairs: []Label{{Name: "bad name", Value: "x"}}, canon: "bad name=x"}}
	for name, sm := range map[string]Sample{
		"NaN value":     {Time: 1, Metric: "bw", Scope: ScopeNode, Value: math.NaN()},
		"Inf value":     {Time: 1, Metric: "bw", Scope: ScopeNode, Value: math.Inf(1)},
		"negative time": {Time: -1, Metric: "bw", Scope: ScopeNode, Value: 1},
		"NaN time":      {Time: math.NaN(), Metric: "bw", Scope: ScopeNode, Value: 1},
		"bad scope":     {Time: 1, Metric: "bw", Scope: Scope(42), Value: 1},
		"empty metric":  {Time: 1, Metric: "   ", Scope: ScopeNode, Value: 1},
		"bad label":     {Time: 1, Metric: "bw", Scope: ScopeNode, Value: 1, Labels: badLabels},
	} {
		payload := encodeV4(t, []wireSample{{Sample: sm}})
		if _, err := decodeV4Batch(payload); err == nil {
			t.Errorf("%s: decodeV4 accepted invalid record", name)
		}
		if _, err := DecodeV4Samples(payload, nil); err == nil {
			t.Errorf("%s: DecodeV4Samples accepted invalid record", name)
		}
	}

	// Label pairs may arrive in any order (a foreign encoder), but never
	// twice under one name.
	group := func(labels ...string) []byte {
		p := append([]byte(v4Magic), 1, 0, 0) // one group; empty collector and source
		p = appendString(p, "bw")
		p = appendString(p, "node")
		p = append(p, 0, byte(len(labels)/2))
		for _, l := range labels {
			p = appendString(p, l)
		}
		p = append(p, 1) // one sample
		p = appendDeltaColumn(p, []float64{1})
		p = appendDeltaColumn(p, []float64{0})
		return appendXORColumn(p, []float64{2})
	}
	b, err := decodeV4Batch(group("rack", "r1", "job", "lbm"))
	if err != nil {
		t.Fatalf("unsorted label pairs rejected: %v", err)
	}
	if got := encodePairs(b.groups[0].pairs); got != "job=lbm,rack=r1" {
		t.Errorf("unsorted pairs decoded as %q, want them sorted", got)
	}
	if _, err := decodeV4Batch(group("job", "lbm", "job", "xhpl")); err == nil {
		t.Error("duplicate label name accepted")
	}
}

// TestV4IngestEndToEnd posts a v4 payload (identity and gzipped) at a
// live receiver and checks the samples land on the same keys a v3
// JSON-lines push would use — including the v1 prefix shim for
// sourceless groups.
func TestV4IngestEndToEnd(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()

	code, body := postIngest4(t, base, encodeV4(t, v4WireSamples(t)), false)
	if code != http.StatusOK {
		t.Fatalf("v4 ingest = %d %q", code, body)
	}
	var resp ingestResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.Accepted != 5 {
		t.Fatalf("v4 ingest response = %q (err %v), want accepted 5", body, err)
	}
	labels, err := MakeLabels(map[string]string{"job": "lbm", "rack": "r1"})
	if err != nil {
		t.Fatal(err)
	}
	kA := Key{Source: "nodeA-7", Metric: "dp_mflops_s", Scope: ScopeThread, ID: 0, Labels: labels}
	if pts := store.Window(kA, 0, -1); len(pts) != 3 || pts[0].Value != 571.25 {
		t.Errorf("labelled series = %+v, want the 3 nodeA points", pts)
	}
	kB := Key{Source: "nodeB-9", Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0}
	if pts := store.Window(kB, 0, -1); len(pts) != 2 || pts[1].Value != 13710 {
		t.Errorf("socket series = %+v, want the 2 nodeB points", pts)
	}

	// Gzipped v4: the Content-Encoding layer composes with the binary
	// Content-Type.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	v1shim := encodeV4(t, []wireSample{
		{Sample: Sample{Time: 9, Metric: "nodeC/bw", Scope: ScopeNode, Value: 42}, Collector: "c"},
	})
	if _, err := zw.Write(v1shim); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := postIngest4(t, base, gz.Bytes(), true); code != http.StatusOK {
		t.Fatalf("gzipped v4 ingest = %d %q", code, body)
	}
	kC := Key{Source: "nodeC", Metric: "bw", Scope: ScopeNode, ID: 0}
	if p, ok := store.Latest(kC); !ok || p.Value != 42 {
		t.Errorf("v1-shimmed v4 sample = %+v (%v), want value 42 under source nodeC", p, ok)
	}

	// A malformed v4 body is a 400, all-or-nothing.
	before := len(store.Keys())
	if code, _ := postIngest4(t, base, []byte("LKW4\xff\xff\xff"), false); code != http.StatusBadRequest {
		t.Errorf("malformed v4 ingest = %d, want 400", code)
	}
	if after := len(store.Keys()); after != before {
		t.Errorf("malformed v4 ingest left %d new series behind", after-before)
	}
}

// postIngest4 is postIngest with the v4 Content-Type.
func postIngest4(t *testing.T, base string, body []byte, gzipped bool) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", V4ContentType)
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestPushSinkWireFormatGoldenV4 pins the v4 wire bytes: the push sink
// in WireV4 mode posts the binary payload identity-encoded under the v4
// Content-Type, and the bytes are deterministic.
func TestPushSinkWireFormatGoldenV4(t *testing.T) {
	rec := &captureReceiver{}
	srv := httptest.NewServer(http.HandlerFunc(rec.handler))
	defer srv.Close()

	p, err := NewPushSink(PushOptions{
		URL: srv.URL, FlushSamples: 1 << 20, Source: "nodeA-7",
		Format: WireV4, Now: epochClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches() {
		if err := p.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.payloads) != 1 {
		t.Fatalf("receiver saw %d pushes, want 1", len(rec.payloads))
	}
	h := rec.headers[0]
	if h.Get("Content-Type") != V4ContentType || h.Get("Content-Encoding") != "" {
		t.Errorf("v4 push headers = type %q enc %q, want %s / identity",
			h.Get("Content-Type"), h.Get("Content-Encoding"), V4ContentType)
	}
	checkGolden(t, "push_batch_v4.golden", rec.payloads[0])
}

// TestV4PushReceiveEndToEnd runs the real pipeline on the v4 wire: push
// sink in WireV4 mode → live receiver → store windows.
func TestV4PushReceiveEndToEnd(t *testing.T) {
	h, store := newTestHTTPSink(t)
	p, err := NewPushSink(PushOptions{
		URL: "http://" + h.Addr() + "/ingest", FlushSamples: 1,
		Source: "agentX", Format: WireV4, Now: epochClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches() {
		if err := p.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Sent(); got != 8 {
		t.Fatalf("Sent = %d, want all 8 samples", got)
	}
	k := Key{Source: "agentX", Metric: "dp_mflops_s", Scope: ScopeThread, ID: 0}
	pts := store.Window(k, 0, -1)
	if len(pts) != 2 || pts[0].Value != 571.25 || pts[1].Value != 570.75 {
		t.Errorf("received series = %+v, want both thread-0 points", pts)
	}
}

// TestV4WireDensity is the acceptance gate: on a realistic ingest batch
// (regularly sampled series, slowly-moving values) the v4 wire must
// spend at least 3× fewer bytes per sample than gzipped v3 JSON lines.
func TestV4WireDensity(t *testing.T) {
	samples := densityWireSamples(t, 8, 512)
	v4 := encodeV4(t, samples)
	var v3 bytes.Buffer
	zw := gzip.NewWriter(&v3)
	enc := json.NewEncoder(zw)
	for _, r := range samples {
		if err := enc.Encode(jsonSample{
			Time: r.Time, SentAt: r.SentAt, Collector: r.Collector, Source: r.Source,
			Labels: r.Labels.Map(), Metric: r.Metric, Scope: r.Scope.String(), ID: r.ID, Value: r.Value,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	n := float64(len(samples))
	v4per, v3per := float64(len(v4))/n, float64(v3.Len())/n
	t.Logf("bytes/sample: v4 %.2f, v3 gzip %.2f (%.1fx)", v4per, v3per, v3per/v4per)
	if v4per*3 > v3per {
		t.Errorf("v4 = %.2f bytes/sample vs v3 gzip %.2f — want ≥3x denser", v4per, v3per)
	}

	// And the round trip still holds at this size.
	b, err := decodeV4Batch(v4)
	if err != nil {
		t.Fatal(err)
	}
	if b.rows() != len(samples) {
		t.Fatalf("decoded %d samples, want %d", b.rows(), len(samples))
	}
}

// TestV4FuzzCorpusSeeds keeps the checked-in FuzzIngestV4 seed corpus in
// sync with the encoder: -update regenerates the files, a normal run
// asserts each is present and parses as a Go fuzz corpus entry.
func TestV4FuzzCorpusSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzIngestV4")
	seeds := fuzzV4Seeds(t)
	entry := func(name string) []byte {
		return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbool(%v)\n", seeds[name].Body, seeds[name].Gzip))
	}
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name := range seeds {
			if err := os.WriteFile(filepath.Join(dir, "seed_"+name), entry(name), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, seed := range seeds {
		data, err := os.ReadFile(filepath.Join(dir, "seed_"+name))
		if err != nil {
			t.Fatalf("missing corpus seed (run with -update): %v", err)
		}
		if !bytes.HasPrefix(data, []byte("go test fuzz v1\n[]byte(")) {
			t.Errorf("seed_%s is not a fuzz corpus entry:\n%s", name, data)
		}
		// The corpus was written by the encoder's previous generation:
		// byte identity of every seed the encoder produces is the "not
		// one wire byte changed" pin.  (The gzipped seed is exempt:
		// compress/gzip's output is not stable across Go releases.)
		if !seed.Gzip && !bytes.Equal(data, entry(name)) {
			t.Errorf("seed_%s differs from what the encoder produces now:\n%s\nvs\n%s", name, data, entry(name))
		}
	}
}

// densityWireSamples models a steady fleet flush: nSeries series sampled
// every 125 ms (exact in binary, like the suite's other fixtures),
// quantized values that hold for several ticks between steps (monitoring
// series are sampled faster than they change), sent_at constant per
// flush — the shape the columnar codecs are built for.
func densityWireSamples(tb testing.TB, nSeries, nTicks int) []wireSample {
	lbm, err := MakeLabels(map[string]string{"job": "lbm"})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	out := make([]wireSample, 0, nSeries*nTicks)
	for s := 0; s < nSeries; s++ {
		v := 1000 + float64(rng.Intn(100))
		for i := 0; i < nTicks; i++ {
			if i%8 == 0 {
				v += float64(rng.Intn(11) - 5)
			}
			out = append(out, wireSample{
				Sample: Sample{
					Source: "node42", Labels: lbm, Metric: "memory_bandwidth_mbytes_s",
					Scope: ScopeThread, ID: s, Time: float64(i) * 0.125, Value: v,
				},
				Collector: "perfgroup/MEM_DP",
				SentAt:    1700000000,
			})
		}
	}
	return out
}
