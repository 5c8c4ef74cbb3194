package monitor

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"unsafe"

	"likwid/internal/benchreport"
	"likwid/internal/telemetry"
)

// The codec benchmarks run at the two shapes a fleet produces: deep (8
// series × 512 ticks = 4096 samples, the push sink's MaxBuffered default
// — a catch-up flush, quantized slowly-stepping values, constant
// per-flush sent_at; the fixture TestV4WireDensity gates the ≥3×
// bytes/sample ratio on) and wide (512 series × 1 tick — what an agent
// ships every interval, where a group is a point and its directory
// entry is most of the payload).  Each reports ns, B and allocs per sample, so
// the stages compare; the ingest ones also report MB/s of wire
// (b.SetBytes is the wire size of one flush) and wire bytes per sample.
// The wide-cold variants time the miss path of the encoder's shape cache
// and of /ingest's identity memo: every operation is a shape neither
// remembers.

// benchShapes are the two fixtures every codec benchmark runs.
var benchShapes = []struct {
	name string
	rows func(testing.TB) []wireSample
}{
	{"deep", func(tb testing.TB) []wireSample { return densityWireSamples(tb, 8, 512) }},
	{"wide", wideRows},
}

// coldSources name the first row's source in the wide-cold variants of
// the wide fixture, whose other rows stay as they are.  There are more
// of them than either cache's byte bound holds (an identity memo entry
// keeps a landGroup for each of the 512 groups, an encoder shape a
// larger group key), so in rotation every batch misses; the variants
// fail on a hit.
var coldSources = func() []string {
	out := make([]string, maxIdentMemoBytes/(512*int(unsafe.Sizeof(landGroup{})))+1)
	for i := range out {
		out[i] = fmt.Sprintf("cold-%d", i)
	}
	return out
}()

// benchIngest posts the payloads in turn, nSamples each, and returns
// the number of timed posts that hit the identity memo.
func benchIngest(b *testing.B, payloads [][]byte, contentType string, gzipped bool, nSamples int) (hits uint64) {
	b.Helper()
	const capacity = 1024
	st := NewStore(capacity)
	h := &HTTPSink{store: st}
	reg := telemetry.New()
	h.tMemo.instrument(reg, "ingest")
	b.SetBytes(int64(len(payloads[0])))
	next := 0
	post := func() {
		payload := payloads[next%len(payloads)]
		next++
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(payload))
		req.Header.Set("Content-Type", contentType)
		if gzipped {
			req.Header.Set("Content-Encoding", "gzip")
		}
		w := httptest.NewRecorder()
		h.handleIngest(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("ingest status %d: %s", w.Code, w.Body.String())
		}
	}
	// Create the payloads' series and fill their rings before timing: a
	// ring grows lazily, and its doublings would otherwise land inside the
	// timed loop of a shape that adds few points per series per POST.
	for range payloads {
		post()
	}
	for _, k := range st.Keys() {
		for range capacity {
			st.Append(k, Point{})
		}
	}
	before := h.tMemo[shapeHit].Value()
	benchreport.PerSample(b, nSamples, post)
	b.ReportMetric(float64(nSamples)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	b.ReportMetric(float64(len(payloads[0]))/float64(nSamples), "wire_bytes/sample")
	return h.tMemo[shapeHit].Value() - before
}

// BenchmarkIngestThroughputV3Gzip is the baseline: the deep flush as
// gzipped JSON lines, decoded, validated and appended.
func BenchmarkIngestThroughputV3Gzip(b *testing.B) {
	rows := benchShapes[0].rows(b)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	enc := json.NewEncoder(zw)
	for _, r := range rows {
		if err := enc.Encode(jsonSample{
			Time: r.Time, SentAt: r.SentAt, Collector: r.Collector, Source: r.Source,
			Labels: r.Labels.Map(), Metric: r.Metric, Scope: r.Scope.String(), ID: r.ID, Value: r.Value,
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		b.Fatal(err)
	}
	benchIngest(b, [][]byte{buf.Bytes()}, "application/x-ndjson", true, len(rows))
}

// BenchmarkIngestThroughputJSON is the receiver side of a JSON-lines
// flush at the shape query-mixed's pusher ships: 500 labelled series,
// one point each, as appendJSONLine writes them, plain and gzipped.
func BenchmarkIngestThroughputJSON(b *testing.B) {
	rows := wideRows(b)[:500]
	var lines []byte
	for _, r := range rows {
		var err error
		if lines, err = appendJSONLine(lines, r.Sample, r.Collector, r.SentAt); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("wide", func(b *testing.B) {
		benchIngest(b, [][]byte{lines}, "application/x-ndjson", false, len(rows))
	})
	b.Run("wide-gzip", func(b *testing.B) {
		benchIngest(b, [][]byte{gzipped(b, lines)}, "application/x-ndjson", true, len(rows))
	})
}

// BenchmarkIngestThroughputV4 is the receiver side of a flush on the v4
// wire: read, decode, resolve, append.
func BenchmarkIngestThroughputV4(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rows := shape.rows(b)
			benchIngest(b, [][]byte{encodeV4(b, rows)}, V4ContentType, false, len(rows))
		})
	}
	b.Run("wide-cold", func(b *testing.B) {
		rows := wideRows(b)
		var payloads [][]byte
		for _, source := range coldSources {
			rows[0].Source = source
			payloads = append(payloads, encodeV4(b, rows))
		}
		if hits := benchIngest(b, payloads, V4ContentType, false, len(rows)); hits > 0 {
			b.Fatalf("%d of %d cold posts hit the identity memo", hits, b.N)
		}
	})
}

// BenchmarkEncodeV4 isolates the agent-side encode cost of one flush,
// with the sink's scratch and output buffer warm.
func BenchmarkEncodeV4(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rows := shape.rows(b)
			samples, meta := rowsOf(rows)
			var enc V4Encoder
			var out []byte
			benchreport.PerSample(b, len(rows), func() {
				var err error
				if out, err = enc.encode(out[:0], samples, meta); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
	b.Run("wide-cold", func(b *testing.B) {
		samples, meta := rowsOf(wideRows(b))
		var enc V4Encoder
		reg := telemetry.New()
		enc.Instrument(reg, "push")
		var out []byte
		next := 0
		benchreport.PerSample(b, len(samples), func() {
			var err error
			samples[0].Source = coldSources[next%len(coldSources)]
			next++
			if out, err = enc.encode(out[:0], samples, meta); err != nil {
				b.Fatal(err)
			}
		})
		if hits := enc.tShapes[shapeHit].Value(); hits > 0 {
			b.Fatalf("%d of %d cold encodes hit the shape cache", hits, next)
		}
	})
}
