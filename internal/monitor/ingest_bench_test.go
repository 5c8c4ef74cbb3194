package monitor

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"likwid/internal/benchreport"
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

// benchShapes are the two fixtures every codec benchmark runs.
var benchShapes = []struct {
	name string
	rows func(testing.TB) []wireSample
}{
	{"deep", func(tb testing.TB) []wireSample { return densityWireSamples(tb, 8, 512) }},
	{"wide", wideRows},
}

func benchIngest(b *testing.B, payload []byte, contentType string, gzipped bool, nSamples int) {
	b.Helper()
	const capacity = 1024
	st := NewStore(capacity)
	h := &HTTPSink{store: st, latest: map[Key]Sample{}}
	b.SetBytes(int64(len(payload)))
	post := func() {
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
	// Create the payload's series and fill their rings before timing: a
	// ring grows lazily, and its doublings would otherwise land inside the
	// timed loop of a shape that adds few points per series per POST.
	post()
	for _, k := range st.Keys() {
		for range capacity {
			st.Append(k, Point{})
		}
	}
	benchreport.PerSample(b, nSamples, post)
	b.ReportMetric(float64(nSamples)*float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
	b.ReportMetric(float64(len(payload))/float64(nSamples), "wire_bytes/sample")
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
	benchIngest(b, buf.Bytes(), "application/x-ndjson", true, len(rows))
}

// BenchmarkIngestThroughputV4 is the receiver side of a flush on the v4
// wire: read, decode, resolve, append, latest map.
func BenchmarkIngestThroughputV4(b *testing.B) {
	for _, shape := range benchShapes {
		b.Run(shape.name, func(b *testing.B) {
			rows := shape.rows(b)
			benchIngest(b, encodeV4(b, rows), V4ContentType, false, len(rows))
		})
	}
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
}
