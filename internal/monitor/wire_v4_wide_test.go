package monitor

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// wideBatch is one agent tick in the shape fleet-steady produces: 512
// series (64 metrics × 8 thread ids) under two labels, one point each —
// so a flush is 512 one-point column groups, the opposite extreme from
// the 8-series × 512-tick deep fixture.
func wideBatch(tb testing.TB, tick int) Batch {
	tb.Helper()
	ls, err := MakeLabels(map[string]string{"cluster": "emmy", "job": "lbm"})
	if err != nil {
		tb.Fatal(err)
	}
	at := float64(tick+1) * 0.05
	b := Batch{Collector: "synthetic", Time: at, Samples: make([]Sample, 0, 512)}
	for m := 0; m < 64; m++ {
		for id := 0; id < 8; id++ {
			b.Samples = append(b.Samples, Sample{
				Metric: fmt.Sprintf("metric_%02d", m), Scope: ScopeThread, ID: id, Labels: ls,
				Time: at, Value: float64(1000 + 8*m + id + tick/8),
			})
		}
	}
	return b
}

// TestPushSinkWireFormatGoldenV4Wide pins the v4 bytes at the wide
// shape, where agents actually live, not only on the deep fixture: one
// string table, one label set, 512 seven-byte directory entries and
// batch-wide columns.
func TestPushSinkWireFormatGoldenV4Wide(t *testing.T) {
	rec := &captureReceiver{}
	srv := httptest.NewServer(http.HandlerFunc(rec.handler))
	defer srv.Close()

	p, err := NewPushSink(PushOptions{
		URL: srv.URL, FlushSamples: 1 << 20, Source: "agent0", Format: WireV4,
		Now: func() time.Time { return time.Unix(1700000000, 250e6) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(wideBatch(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.payloads) != 1 {
		t.Fatalf("receiver saw %d pushes, want 1", len(rec.payloads))
	}
	checkGolden(t, "push_batch_v4_wide.golden", rec.payloads[0])
}

// rowsOf splits fixture rows into the encoder's two inputs.
func rowsOf(rows []wireSample) ([]Sample, []sampleMeta) {
	samples := make([]Sample, len(rows))
	meta := make([]sampleMeta, len(rows))
	for i, r := range rows {
		samples[i], meta[i] = r.Sample, sampleMeta{collector: r.Collector, sentAt: r.SentAt}
	}
	return samples, meta
}

// TestEncodeV4AllocsWarm pins the encoder's allocation budget (ROADMAP:
// at most one per series group).  With the sink's scratch warm and the
// output buffer sized, a flush allocates nothing at either shape — not
// per group, not per sample.
func TestEncodeV4AllocsWarm(t *testing.T) {
	for name, rows := range map[string][]wireSample{
		"wide 512x1": wideRows(t),
		"deep 8x512": densityWireSamples(t, 8, 512),
	} {
		samples, meta := rowsOf(rows)
		var enc V4Encoder
		out, err := enc.encode(nil, samples, meta)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			out, _ = enc.encode(out[:0], samples, meta)
		}); allocs != 0 {
			t.Errorf("%s: warm encode allocates %.0f times per flush, want 0", name, allocs)
		}
	}
}

// wideRows is one wideBatch tick as a push sink would have buffered it.
func wideRows(tb testing.TB) []wireSample {
	tick := wideBatch(tb, 0)
	rows := make([]wireSample, len(tick.Samples))
	for i, sm := range tick.Samples {
		sm.Source = "agent0"
		rows[i] = wireSample{Sample: sm, Collector: tick.Collector, SentAt: 1700000000.25}
	}
	return rows
}

// ingestAllocs measures the allocations of one whole /ingest request
// (handler, decode, every stage, response) on a store that already holds
// the payload's series: with the identity memo (every measured post a
// hit) and, forget set, with the memo dropped before each post (every
// one a miss, which decodes and resolves the identity in full).
func ingestAllocs(t *testing.T, payload []byte, forget bool) float64 {
	t.Helper()
	h := &HTTPSink{store: NewStore(1024)}
	post := func() {
		if forget {
			h.identMemo = nil
		}
		req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(payload))
		req.Header.Set("Content-Type", V4ContentType)
		w := httptest.NewRecorder()
		h.handleIngest(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("ingest status %d: %s", w.Code, w.Body.String())
		}
	}
	post() // creates the series
	return testing.AllocsPerRun(20, post)
}

// TestV4IngestAllocsPerGroup pins the receiving side: decoding a payload
// and running it through every ingest stage costs a small constant per
// request — a handful of slices however many groups there are (the pin
// is 3 per group; it measures about 0.15 at the wide shape on the
// identity memo's hit path and 0.18 on its miss path, request and
// response plumbing and the series' ring growth included) — and nothing
// that scales with the samples in a group, on either path.
func TestV4IngestAllocsPerGroup(t *testing.T) {
	for _, path := range []struct {
		name   string
		forget bool
	}{{"hit", false}, {"miss", true}} {
		wide := ingestAllocs(t, encodeV4(t, wideRows(t)), path.forget)
		if perGroup := wide / 512; perGroup > 3 {
			t.Errorf("%s: wide payload: %.0f allocs per request = %.2f per group, want <= 3", path.name, wide, perGroup)
		}
		if wide > 150 {
			t.Errorf("%s: wide payload: %.0f allocs per request; the per-request constant has grown (was ~80)", path.name, wide)
		}
		shallow := ingestAllocs(t, encodeV4(t, densityWireSamples(t, 8, 64)), path.forget)
		deep := ingestAllocs(t, encodeV4(t, densityWireSamples(t, 8, 512)), path.forget)
		if deep > shallow+4 {
			t.Errorf("%s: 8 groups x 512 samples cost %.0f allocs, 8 x 64 cost %.0f: allocations scale with samples per group", path.name, deep, shallow)
		}
	}
}

// TestV4RejectedPayloadLeavesNoInternResidue is the all-or-nothing
// contract down to the process-wide label intern table: a payload whose
// first group is valid and carries a never-seen label set, but whose
// last group is bad — or whose labels only fail the receiver's
// default-merge cap — is 400'd with no series created and nothing
// interned.
func TestV4RejectedPayloadLeavesNoInternResidue(t *testing.T) {
	novel := Labels{set: &labelSet{
		pairs: []Label{{Name: "job", Value: "never-seen-before-residue-check"}},
		canon: "job=never-seen-before-residue-check",
	}} // hand-built so the fixture itself interns nothing
	good := Sample{Source: "nodeA", Metric: "bw", Scope: ScopeNode, Labels: novel, Time: 1, Value: 1}
	bad := Sample{Source: "nodeA", Metric: "bw2", Scope: ScopeNode, Time: -1, Value: 1}

	h, store := newTestHTTPSink(t)
	before := InternedLabelSets()
	code, body := postIngest4(t, "http://"+h.Addr(), encodeV4(t, []wireSample{{Sample: good}, {Sample: bad}}), false)
	if code != http.StatusBadRequest {
		t.Fatalf("payload with a bad last group = %d %q, want 400", code, body)
	}
	if got := InternedLabelSets(); got != before {
		t.Errorf("rejected payload interned %d label sets", got-before)
	}
	if n := len(store.Keys()); n != 0 {
		t.Errorf("rejected payload created %d series", n)
	}

	// The merge cap: defaults fill the label budget, the sample's one
	// extra name overflows it.
	var defaults []string
	for i := 0; i < maxLabels; i++ {
		defaults = append(defaults, fmt.Sprintf("d%02d=x", i))
	}
	h.SetIngestLabels(mustLabels(t, strings.Join(defaults, ",")))
	before = InternedLabelSets()
	code, body = postIngest4(t, "http://"+h.Addr(), encodeV4(t, []wireSample{{Sample: good}}), false)
	if code != http.StatusBadRequest {
		t.Fatalf("payload over the merge cap = %d %q, want 400", code, body)
	}
	if got := InternedLabelSets(); got != before {
		t.Errorf("payload rejected by the merge cap interned %d label sets", got-before)
	}
	if n := len(store.Keys()); n != 0 {
		t.Errorf("payload rejected by the merge cap created %d series", n)
	}
}
