package monitor

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"likwid/internal/telemetry"
)

// The store benchmarks guard the hot identity path of the whole stack:
// every collector tick, every pushed batch, and every alert evaluation
// funnels through Append / Window keyed by monitor.Key.  CI runs them
// with -benchtime 1x as a smoke test so they cannot bit-rot; locally,
// `go test -bench Store ./internal/monitor` gives real numbers.

func benchKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{
			Metric: fmt.Sprintf("memory_bandwidth_mbytes_s_%d", i%8),
			Scope:  ScopeSocket,
			ID:     i % 4,
		}
	}
	return keys
}

// fillRings appends capacity + blockPoints points to each key before the
// timer starts, so an append benchmark measures the path a long-running
// series lives on — evicting from the tail, draining it and popping the
// next sealed block, sealing the head — not the series' one-time growth.
// The fill ends just after a seal, so a -benchtime 1x smoke run times a
// plain append.
func fillRings(st *Store, capacity int, keys ...Key) {
	for _, k := range keys {
		for i := -capacity - blockPoints; i < 0; i++ {
			st.Append(k, Point{Time: float64(i), Value: float64(i)})
		}
	}
}

// BenchmarkStoreAppend measures the single-series hot path: one point
// into one ring.
func BenchmarkStoreAppend(b *testing.B) {
	st := NewStore(1024)
	k := Key{Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0}
	fillRings(st, 1024, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Append(k, Point{Time: float64(i), Value: float64(i)})
	}
}

// BenchmarkStoreAppendManySeries spreads appends over many series, the
// shape of a full perfgroup batch landing in the store.
func BenchmarkStoreAppendManySeries(b *testing.B) {
	st := NewStore(1024)
	keys := benchKeys(32)
	fillRings(st, 1024, keys...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Append(keys[i%len(keys)], Point{Time: float64(i), Value: float64(i)})
	}
}

// BenchmarkStoreAppendLabeled measures the hot path with a labelled
// key: the interned Labels handle must keep the append at one atomic
// load plus one map access with zero allocations — hashing one extra
// pointer word, never re-encoding the label set.
func BenchmarkStoreAppendLabeled(b *testing.B) {
	st := NewStore(1024)
	ls, err := ParseLabelSpec("cluster=emmy,job=lbm")
	if err != nil {
		b.Fatal(err)
	}
	k := Key{Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0, Labels: ls}
	fillRings(st, 1024, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Append(k, Point{Time: float64(i), Value: float64(i)})
	}
}

// BenchmarkStoreAppendInstrumented is BenchmarkStoreAppend with the
// telemetry registry attached: instrumentation is pull-model (snapshot
// readers sum per-series counters; nothing atomic rides the append), so
// this must stay within noise of the uninstrumented number — the
// "observing must not perturb the observed" budget.
func BenchmarkStoreAppendInstrumented(b *testing.B) {
	st := NewStore(1024)
	st.Instrument(telemetry.New())
	k := Key{Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0}
	fillRings(st, 1024, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Append(k, Point{Time: float64(i), Value: float64(i)})
	}
}

// BenchmarkStoreAppendTiered includes the retention cascade: the ring is
// small, so every append evicts into the downsampling tiers.
func BenchmarkStoreAppendTiered(b *testing.B) {
	st := NewStore(64, Tier{Resolution: 16, Capacity: 64}, Tier{Resolution: 256, Capacity: 64})
	k := Key{Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Append(k, Point{Time: float64(i), Value: float64(i)})
	}
}

// BenchmarkStoreSeal measures sealing one full head of blockPoints
// points — a value stepping slowly over a steady cadence, the shape of
// counter-derived rates — into a block, reusing the previous block's
// bytes as a full series does.  It reports ns per point: the share of
// every append that compression costs.
func BenchmarkStoreSeal(b *testing.B) {
	head := make([]Point, blockPoints)
	for i := range head {
		head[i] = Point{Time: 1.7e9 + float64(i), Value: 4200 + float64(i/16)*0.125}
	}
	var spare []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spare = sealBlock(head, spare).Data
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*blockPoints), "ns/point")
}

// BenchmarkStoreWindow measures the windowed read path on a full
// 1024-point series through a reused buffer.  /recent is the newest 5 %,
// the shape the alert and derive engines read once per rule per
// evaluation (only the newest blocks are decoded); /mid is a quarter of
// the series from its middle; /tiered is a rule's 1 s window at 100 Hz
// on a 10s:360,60s:240 store whose older history has been evicted into
// the tiers (raw-covered: the tiers are not read).
func BenchmarkStoreWindow(b *testing.B) {
	k := Key{Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0}
	st := NewStore(1024)
	for i := 0; i < 1024; i++ {
		st.Append(k, Point{Time: float64(i), Value: float64(i)})
	}
	tiers, err := ParseTiers("10s:360,60s:240")
	if err != nil {
		b.Fatal(err)
	}
	tiered := NewStore(1024, tiers...)
	for i := 0; i < 3000; i++ {
		tiered.Append(k, Point{Time: float64(i) / 100, Value: float64(i)})
	}
	for _, tc := range []struct {
		name     string
		st       *Store
		from, to float64
	}{{"recent", st, 1024 * 0.95, -1}, {"mid", st, 512, 768}, {"tiered", tiered, 28.99, -1}} {
		b.Run(tc.name, func(b *testing.B) {
			buf := tc.st.WindowInto(k, tc.from, tc.to, nil) // size the buffer once
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf = tc.st.WindowInto(k, tc.from, tc.to, buf); len(buf) == 0 {
					b.Fatal("empty window")
				}
			}
		})
	}
}

// BenchmarkStoreLatest measures the point read behind /metrics and the
// engine's staleness probe.
func BenchmarkStoreLatest(b *testing.B) {
	st := NewStore(1024)
	k := Key{Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0}
	st.Append(k, Point{Time: 1, Value: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Latest(k); !ok {
			b.Fatal("missing point")
		}
	}
}

// benchIngestPayload renders one JSON-lines push batch: samples samples
// across series series, tagged with a per-agent source.
func benchIngestPayload(samples, series int) []byte {
	var buf bytes.Buffer
	for i := 0; i < samples; i++ {
		fmt.Fprintf(&buf,
			`{"time":%d,"collector":"perfgroup/MEM_DP","source":"node%d","metric":"memory_bandwidth_mbytes_s","scope":"socket","id":%d,"value":%d}`+"\n",
			i, i%4, i%series, i)
	}
	return buf.Bytes()
}

// BenchmarkReceiverFanIn measures the receiver's /ingest hot path: one
// pushed batch decoded, validated, and appended to the store — the
// fan-in cost per agent flush.
func BenchmarkReceiverFanIn(b *testing.B) {
	st := NewStore(1024)
	h := &HTTPSink{store: st}
	payload := benchIngestPayload(64, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(payload))
		req.Header.Set("Content-Type", "application/x-ndjson")
		w := httptest.NewRecorder()
		h.handleIngest(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("ingest status %d", w.Code)
		}
	}
}
