package monitor

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"likwid/internal/telemetry"
)

// epochClock pins PushOptions.Now at the epoch, which disables sent_at
// stamping — the wire bytes stay identical to the pre-sent_at format.
func epochClock() time.Time { return time.Unix(0, 0) }

// captureReceiver records gunzipped /ingest payloads.
type captureReceiver struct {
	mu       sync.Mutex
	payloads [][]byte
	headers  []http.Header
	failNext int32 // requests to reject with 500 before accepting
}

func (c *captureReceiver) handler(w http.ResponseWriter, r *http.Request) {
	if atomic.AddInt32(&c.failNext, -1) >= 0 {
		http.Error(w, "simulated outage", http.StatusInternalServerError)
		return
	}
	body := io.Reader(r.Body)
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		defer zr.Close()
		body = zr
	}
	data, err := io.ReadAll(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	c.payloads = append(c.payloads, data)
	c.headers = append(c.headers, r.Header.Clone())
	c.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// The JSON push wire is pinned by push_batch.golden, one section per
// case, each the single gzip'd ndjson POST that carries goldenBatches:
//
//   - v1: no Source, so no "source" field — the original schema.
//   - v2: the agent's Source rides as a per-sample "source" field
//     (never a metric prefix), and a relayed sample that carries its
//     own Source keeps it.
//   - v3: the label set rides as a "labels" object (sorted keys) and is
//     omitted, not {}, on an unlabelled relayed record — so that record
//     is byte-identical to its v2 form.
//   - sent_at: each record carries the sink's wall-clock enqueue time
//     right after "time", stamped per Write (two Writes, two stamps).
//
// Every other case pins Now at the epoch, which disables stamping.
func TestPushSinkWireFormatGolden(t *testing.T)         { checkPushGolden(t, "v1") }
func TestPushSinkWireFormatGoldenV2(t *testing.T)       { checkPushGolden(t, "v2") }
func TestPushSinkWireFormatGoldenV3(t *testing.T)       { checkPushGolden(t, "v3") }
func TestPushSinkWireFormatGoldenV3SentAt(t *testing.T) { checkPushGolden(t, "sent_at") }

// checkPushGolden pushes goldenBatches through the named case's sink and
// checks the one POST against that case's section of push_batch.golden.
func checkPushGolden(t *testing.T, name string) {
	t.Helper()
	relay := func(bs []Batch) {
		bs[1].Samples = append(bs[1].Samples, Sample{
			Source: "nodeB-9", Metric: "dp_mflops_s", Scope: ScopeNode, ID: 0, Time: 1.0, Value: 99.5,
		})
	}
	lbm := mustLabels(t, "job=lbm,cluster=emmy")
	tick := 0 // the sent_at clock: Write #1 stamps 100.5, #2 101.5
	advancing := func() time.Time {
		tick++
		return time.Unix(100, 0).Add(time.Duration(tick-1)*time.Second + 500*time.Millisecond)
	}
	cases := map[string]struct {
		source string
		now    func() time.Time
		edit   func([]Batch)
	}{
		"v1": {"", epochClock, nil},
		"v2": {"nodeA-7", epochClock, relay},
		"v3": {"nodeA-7", epochClock, func(bs []Batch) {
			for bi := range bs {
				for si := range bs[bi].Samples {
					bs[bi].Samples[si].Labels = lbm
				}
			}
			relay(bs)
		}},
		"sent_at": {"nodeA-7", advancing, nil},
	}
	c := cases[name]
	rec := &captureReceiver{}
	srvURL := serveTest(t, &http.Server{Handler: http.HandlerFunc(rec.handler)})
	p, err := NewPushSink(PushOptions{URL: srvURL, Client: testClient, FlushSamples: 1 << 20, Source: c.source, Now: c.now})
	if err != nil {
		t.Fatal(err)
	}
	batches := goldenBatches()
	if c.edit != nil {
		c.edit(batches)
	}
	for _, b := range batches {
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
	if h := rec.headers[0]; h.Get("Content-Encoding") != "gzip" || h.Get("Content-Type") != "application/x-ndjson" {
		t.Errorf("push headers = enc %q type %q, want gzip/application/x-ndjson",
			h.Get("Content-Encoding"), h.Get("Content-Type"))
	}
	checkGoldenSection(t, "push_batch.golden", name, rec.payloads[0])
}

// checkGoldenSection is checkGolden for one "# name" section of a golden
// file that holds several cases; -update rewrites only that section.
func checkGoldenSection(t *testing.T, file, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", file)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	header := []byte("# " + name + "\n")
	start := bytes.Index(data, header)
	if start < 0 {
		t.Fatalf("%s has no section %q", file, name)
	}
	start += len(header)
	end := len(data)
	if i := bytes.Index(data[start:], []byte("\n# ")); i >= 0 {
		end = start + i + 1
	}
	if *updateGolden {
		updated := append(append(slices.Clip(data[:start]), got...), data[end:]...)
		if err := os.WriteFile(path, updated, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := data[start:end]; !bytes.Equal(got, want) {
		t.Errorf("%s section %q mismatch:\n--- got ---\n%s\n--- want ---\n%s", file, name, got, want)
	}
}

// TestPushSinkCloseHonorsCancelledContext pins the shutdown bugfix: a
// flush against a dead receiver still makes its first attempt, but a
// cancelled context skips the backoff ladder, so Close returns promptly
// instead of sleeping through every retry.
func TestPushSinkCloseHonorsCancelledContext(t *testing.T) {
	rec := &captureReceiver{failNext: 1 << 30}
	srvURL := serveTest(t, &http.Server{Handler: http.HandlerFunc(rec.handler)})

	ctx, cancel := context.WithCancel(context.Background())
	p, err := NewPushSink(PushOptions{
		URL:          srvURL,
		Client:       testClient,
		FlushSamples: 1 << 20, // nothing flushes before Close
		MaxAttempts:  5,
		RetryBase:    30 * time.Second, // the ladder would take minutes
		Context:      ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(goldenBatches()[0]); err != nil {
		t.Fatal(err)
	}
	cancel() // the agent is shutting down
	start := time.Now()
	if err := p.Close(); err == nil {
		t.Error("Close against a dead receiver succeeded, want the push error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Close blocked %v with a cancelled context, want a prompt return", elapsed)
	}
	if got := p.Retries(); got != 1 {
		t.Errorf("Retries = %d, want exactly the single pre-cancellation attempt", got)
	}
}

// TestPushSinkCloseCountsAbandonedSamplesAsDrops pins the Close drop
// accounting: samples still buffered when the final flush fails have no
// next attempt — they must surface as drops in telemetry (with one
// structured warning), not vanish silently.
func TestPushSinkCloseCountsAbandonedSamplesAsDrops(t *testing.T) {
	rec := &captureReceiver{failNext: 1 << 30} // receiver stays dead
	srvURL := serveTest(t, &http.Server{Handler: http.HandlerFunc(rec.handler)})

	var logBuf bytes.Buffer
	p, err := NewPushSink(PushOptions{
		URL:          srvURL,
		Client:       testClient,
		FlushSamples: 1 << 20, // nothing flushes before Close
		MaxAttempts:  1,
		RetryBase:    time.Millisecond,
		Logger:       slog.New(slog.NewTextHandler(&logBuf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(goldenBatches()[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err == nil {
		t.Error("Close against a dead receiver succeeded, want the push error")
	}
	if got := p.Dropped(); got != 4 {
		t.Errorf("Dropped = %d, want the batch's 4 abandoned samples", got)
	}
	if got := p.Sent(); got != 0 {
		t.Errorf("Sent = %d, want 0", got)
	}
	if warns := strings.Count(logBuf.String(), "dropping"); warns != 1 {
		t.Errorf("abandonment warnings = %d, want exactly 1 (log: %s)", warns, logBuf.String())
	}
	// The buffer really was abandoned: a second Close is a clean no-op.
	if err := p.Close(); err != nil {
		t.Errorf("second Close = %v, want nil (pending already dropped)", err)
	}
	if got := p.Dropped(); got != 4 {
		t.Errorf("Dropped after second Close = %d, want still 4 (no double count)", got)
	}
}

func TestPushSinkRetriesThenSucceeds(t *testing.T) {
	rec := &captureReceiver{failNext: 2}
	srvURL := serveTest(t, &http.Server{Handler: http.HandlerFunc(rec.handler)})

	p, err := NewPushSink(PushOptions{
		URL:          srvURL,
		Client:       testClient,
		FlushSamples: 1,
		MaxAttempts:  3,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Write(goldenBatches()[0]); err != nil {
		t.Fatalf("Write should survive 2 outages with 3 attempts: %v", err)
	}
	if got := p.Retries(); got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
	if got := p.Sent(); got != 4 {
		t.Errorf("Sent = %d, want the batch's 4 samples", got)
	}
	if got := p.Pushes(); got != 1 {
		t.Errorf("Pushes = %d, want 1", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestPushSinkKeepsBufferAcrossOutageAndBoundsIt(t *testing.T) {
	rec := &captureReceiver{failNext: 1 << 30}
	srvURL := serveTest(t, &http.Server{Handler: http.HandlerFunc(rec.handler)})

	p, err := NewPushSink(PushOptions{
		URL:          srvURL,
		Client:       testClient,
		FlushSamples: 4,
		MaxBuffered:  6,
		MaxAttempts:  2,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each golden batch has 4 samples, so every Write flushes — and
	// fails, keeping samples pending, bounded at 6 (oldest dropped).
	for i := 0; i < 3; i++ {
		if err := p.Write(goldenBatches()[i%2]); err == nil {
			t.Fatalf("Write %d succeeded during receiver outage", i)
		}
	}
	if got := p.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6 (12 buffered, cap 6)", got)
	}
	if got := p.Sent(); got != 0 {
		t.Errorf("Sent = %d during outage, want 0", got)
	}

	// Receiver recovers: Close flushes the surviving tail.
	atomic.StoreInt32(&rec.failNext, 0)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Sent(); got != 6 {
		t.Errorf("Sent after recovery = %d, want the 6 retained samples", got)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.payloads) != 1 {
		t.Fatalf("receiver saw %d pushes after recovery, want 1", len(rec.payloads))
	}
}

func TestParsePushSinkSpec(t *testing.T) {
	for spec, want := range map[string]string{
		"push:collector:8090":             "http://collector:8090/ingest",
		"push:http://collector:8090":      "http://collector:8090/ingest",
		"push:https://c:8090/custom/path": "https://c:8090/custom/path",
		"push:127.0.0.1:9000":             "http://127.0.0.1:9000/ingest",
	} {
		s, err := ParseSink(context.Background(), spec, nil)
		if err != nil {
			t.Errorf("ParseSink(%q): %v", spec, err)
			continue
		}
		p, ok := s.(*PushSink)
		if !ok {
			t.Errorf("ParseSink(%q) built %T", spec, s)
			continue
		}
		if p.opts.URL != want {
			t.Errorf("ParseSink(%q) URL = %q, want %q", spec, p.opts.URL, want)
		}
	}
	for _, bad := range []string{"push:", "push:ftp://x/ingest", "push:http:///ingest"} {
		if _, err := ParseSink(context.Background(), bad, nil); err == nil {
			t.Errorf("ParseSink(%q) succeeded, want error", bad)
		}
		if err := ValidateSinkSpec(bad); err == nil {
			t.Errorf("ValidateSinkSpec(%q) succeeded, want error", bad)
		}
	}
	if err := ValidateSinkSpec("push:collector:8090"); err != nil {
		t.Errorf("ValidateSinkSpec(push:collector:8090): %v", err)
	}
}

// TestPushReceiveEndToEnd is the acceptance loop: agent A's dispatcher
// drives a push sink at agent B's /ingest; the batches land in B's
// tiered store, are queryable via B's /query, and a Window spanning raw
// and downsampled tiers returns ordered, correct results.
func TestPushReceiveEndToEnd(t *testing.T) {
	// Agent B: receiver with a small raw ring so downsampling engages.
	storeB := NewStore(16, Tier{Resolution: 1, Capacity: 64})
	b, err := ServeHTTPSink(listenTest(t), storeB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Agent A: push sink behind the async dispatcher, exactly the agent
	// pipeline minus the collectors.
	push, err := NewPushSink(PushOptions{
		URL:          "http://" + b.Addr() + "/ingest",
		Client:       testClient,
		FlushSamples: 32,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	const dt = 0.25
	// Queue deeper than the batch count: this test asserts delivery, not
	// the drop-and-count overflow policy (sink_test covers that).
	disp := NewDispatcher(n+8, push)
	for i := 0; i < n; i++ {
		tm := float64(i) * dt
		batch := Batch{Collector: "perfgroup/MEM_DP", Time: tm, Samples: []Sample{
			{Metric: "bw", Scope: ScopeNode, ID: 0, Time: tm, Value: float64(i)},
		}}
		if !disp.Publish(batch) {
			t.Fatalf("dispatcher dropped batch %d under capacity", i)
		}
	}
	if err := disp.Close(); err != nil {
		t.Fatal(err)
	}
	if got := push.Sent(); got != n {
		t.Fatalf("push sink sent %d samples, want %d", got, n)
	}

	// B's store now spans raw (newest 16 points) + 1 s buckets (older).
	k := Key{Metric: "bw", Scope: ScopeNode, ID: 0}
	pts := storeB.Window(k, 0, -1)
	if len(pts) <= 16 {
		t.Fatalf("stitched window has %d points, want raw(16) + downsampled history", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatalf("window not time-ordered at %d: %v after %v", i, pts[i].Time, pts[i-1].Time)
		}
	}
	// The raw tail is verbatim; the ramp makes every stitched value
	// monotonic, downsampled averages included.
	last := pts[len(pts)-1]
	if last.Time != float64(n-1)*dt || last.Value != n-1 {
		t.Errorf("newest point = %+v, want t=%v v=%v", last, float64(n-1)*dt, n-1)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Value <= pts[i-1].Value {
			t.Errorf("ramp not monotonic at %d: %+v after %+v", i, pts[i], pts[i-1])
		}
	}

	// The same series is queryable over B's HTTP /query endpoint.
	code, body := get(t, "http://"+b.Addr()+"/query?metric=bw&scope=node&id=0")
	if code != http.StatusOK {
		t.Fatalf("/query status %d: %s", code, body)
	}
	var resp queryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != len(pts) {
		t.Errorf("/query returned %d points, store window has %d", len(resp.Points), len(pts))
	}

	// And /metrics exposes the pushed series' latest value.
	code, body = get(t, "http://"+b.Addr()+"/metrics")
	if code != http.StatusOK || !strings.Contains(body, `likwid_bw{scope="node",id="0"}`) {
		t.Errorf("/metrics = %d %q, want the ingested bw series", code, body)
	}
}

// TestTwoAgentsFanIn checks several pushers aggregating into one
// receiver: every agent emits the SAME metric name (as real agents
// sampling the same group do), and the per-sink Source identity keeps
// the series distinct at the receiver.
func TestTwoAgentsFanIn(t *testing.T) {
	storeB := NewStore(64)
	b, err := ServeHTTPSink(listenTest(t), storeB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var wg sync.WaitGroup
	for agent := 0; agent < 3; agent++ {
		wg.Add(1)
		go func(agent int) {
			defer wg.Done()
			p, err := NewPushSink(PushOptions{
				URL:          "http://" + b.Addr() + "/ingest",
				Client:       testClient,
				FlushSamples: 8,
				RetryBase:    time.Millisecond,
				Source:       fmt.Sprintf("node%d", agent),
			})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				_ = p.Write(Batch{Collector: "perfgroup", Time: float64(i), Samples: []Sample{
					{Metric: "bw", Scope: ScopeNode, ID: 0, Time: float64(i), Value: float64(agent*1000 + i)},
				}})
			}
			if err := p.Close(); err != nil {
				t.Error(err)
			}
		}(agent)
	}
	wg.Wait()
	for agent := 0; agent < 3; agent++ {
		k := Key{Source: fmt.Sprintf("node%d", agent), Metric: "bw", Scope: ScopeNode, ID: 0}
		pts := storeB.Window(k, 0, -1)
		if len(pts) != 50 {
			t.Errorf("agent %d series has %d points, want 50", agent, len(pts))
			continue
		}
		if pts[49].Value != float64(agent*1000+49) {
			t.Errorf("agent %d newest value = %v, want %d", agent, pts[49].Value, agent*1000+49)
		}
	}
	// The sourceless series must not exist: nothing collapsed.
	if pts := storeB.Window(Key{Metric: "bw", Scope: ScopeNode, ID: 0}, 0, -1); pts != nil {
		t.Errorf("sourceless series has %d points, want none", len(pts))
	}
}

// TestPushSpecSetsDefaultSource pins that CLI-built push sinks carry an
// agent identity, so the README's two-agents-one-receiver walkthrough
// keeps the series separate.
func TestPushSpecSetsDefaultSource(t *testing.T) {
	s, err := ParseSink(context.Background(), "push:127.0.0.1:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if src := s.(*PushSink).opts.Source; src == "" {
		t.Error("ParseSink(push:...) built a sink with no Source identity")
	}
}

// ackReceiver accepts every POST the way HTTPSink does — reading the
// payload, answering with a small JSON body — and counts the
// connections it accepted.  It returns the receiver's base URL.
func ackReceiver(t *testing.T) (string, *atomic.Int32) {
	t.Helper()
	var conns atomic.Int32
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"accepted":1}`)
		}),
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns.Add(1)
			}
		},
	}
	return serveTest(t, srv), &conns
}

// TestPushSinkReusesOneConnection is the keep-alive regression: the sink
// reads the acknowledgement body to EOF before closing it, so sequential
// flushes ride one connection instead of dialing per POST.
func TestPushSinkReusesOneConnection(t *testing.T) {
	srvURL, conns := ackReceiver(t)
	p, err := NewPushSink(PushOptions{
		URL: srvURL, FlushSamples: 1, RetryBase: time.Millisecond,
		Client: testNet.Client(), // its own pool: the connection count is this sink's alone
	})
	if err != nil {
		t.Fatal(err)
	}
	const flushes = 25
	for i := 0; i < flushes; i++ {
		tm := float64(i)
		if err := p.Write(Batch{Collector: "c", Time: tm, Samples: []Sample{
			{Metric: "bw", Scope: ScopeNode, Time: tm, Value: tm},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Pushes(); got != flushes {
		t.Fatalf("Pushes = %d, want %d", got, flushes)
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("receiver accepted %d connections for %d sequential POSTs, want exactly 1", got, flushes)
	}
}

// TestPushSinkNoSilentLossAtFlushThreshold is the silent-loss
// regression: with FlushSamples at or above MaxBuffered (4096, the
// default, is both; 8192 raises MaxBuffered to match), a batch that
// carries the buffer past the threshold used to be trimmed to
// MaxBuffered before the flush it triggered — dropping acknowledged-looking
// samples on a healthy receiver while Write returned nil.  Only a failed
// flush trims now (TestPushSinkKeepsBufferAcrossOutageAndBoundsIt holds
// that bound).
func TestPushSinkNoSilentLossAtFlushThreshold(t *testing.T) {
	const total, perBatch = 100000, 500
	for _, flushSamples := range []int{2048, 4096, 8192} {
		t.Run(fmt.Sprintf("FlushSamples=%d", flushSamples), func(t *testing.T) {
			srvURL, _ := ackReceiver(t)
			p, err := NewPushSink(PushOptions{
				URL: srvURL, Client: testClient, FlushSamples: flushSamples, Format: WireV4, Source: "agent0",
			})
			if err != nil {
				t.Fatal(err)
			}
			for sent := 0; sent < total; sent += perBatch {
				tm := float64(sent / perBatch)
				b := Batch{Collector: "c", Time: tm, Samples: make([]Sample, perBatch)}
				for i := range b.Samples {
					b.Samples[i] = Sample{Metric: "bw", Scope: ScopeThread, ID: i, Time: tm, Value: tm}
				}
				if err := p.Write(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if got := p.Dropped(); got != 0 {
				t.Errorf("Dropped = %d against a healthy receiver, want 0", got)
			}
			if got := p.Sent(); got != total {
				t.Errorf("Sent = %d, want all %d", got, total)
			}
		})
	}
}

// TestPushSinkDropsNonFinite is the poisoned-buffer regression: a NaN or
// ±Inf sample used to fail every flush on both wires — JSON cannot spell
// it, a v4 receiver 400s the whole POST — and stayed pending until trim
// aged it out.  enqueue now drops and counts it; the rest ships.
func TestPushSinkDropsNonFinite(t *testing.T) {
	for name, format := range map[string]WireFormat{"json": WireJSON, "v4": WireV4} {
		t.Run(name, func(t *testing.T) {
			store := NewStore(16)
			recv, err := ServeHTTPSink(listenTest(t), store)
			if err != nil {
				t.Fatal(err)
			}
			defer recv.Close()
			p, err := NewPushSink(PushOptions{
				URL: "http://" + recv.Addr() + "/ingest", Client: testClient, FlushSamples: 4,
				MaxAttempts: 1, RetryBase: time.Millisecond, Format: format,
			})
			if err != nil {
				t.Fatal(err)
			}
			bad := goldenBatches()[0]
			bad.Samples[1].Value = math.NaN()
			bad.Samples[3].Time = math.Inf(-1)
			for _, b := range []Batch{bad, goldenBatches()[1]} {
				if err := p.Write(b); err != nil {
					t.Fatalf("Write: %v, want the finite samples flushed", err)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if got := p.Sent(); got != 6 {
				t.Errorf("Sent = %d, want the 6 finite samples", got)
			}
			if got := p.nonFinite.Load(); got != 2 {
				t.Errorf("non-finite drops = %d, want 2", got)
			}
			if got := p.Dropped(); got != 0 {
				t.Errorf("Dropped = %d, want 0 (nothing evicted)", got)
			}
			k := Key{Metric: "dp_mflops_s", Scope: ScopeThread, ID: 1}
			if pts := store.Window(k, 0, -1); len(pts) != 1 || pts[0].Value != 12.5 {
				t.Errorf("receiver window for %v = %v, want only the finite 12.5", k, pts)
			}
		})
	}
}

// TestPushSinkDropsUnsendable extends the poisoned-buffer regression to
// the finite samples no receiver takes: a negative time (both receivers
// 400 the whole POST) and a negative id (the v4 encoder refuses the
// batch).  enqueue drops and counts each by reason, so the good samples
// of the same batch ship on the first flush.
func TestPushSinkDropsUnsendable(t *testing.T) {
	for _, reason := range []string{"negative_time", "negative_id"} {
		for name, format := range map[string]WireFormat{"json": WireJSON, "v4": WireV4} {
			t.Run(reason+"/"+name, func(t *testing.T) {
				store := NewStore(16)
				recv, err := ServeHTTPSink(listenTest(t), store)
				if err != nil {
					t.Fatal(err)
				}
				defer recv.Close()
				p, err := NewPushSink(PushOptions{
					URL: "http://" + recv.Addr() + "/ingest", Client: testClient, FlushSamples: 3,
					MaxAttempts: 1, RetryBase: time.Millisecond, Format: format,
				})
				if err != nil {
					t.Fatal(err)
				}
				reg := telemetry.New()
				p.Instrument(reg)
				b := goldenBatches()[0]
				if reason == "negative_time" {
					b.Samples[1].Time = -0.5
				} else {
					b.Samples[1].ID = -1
				}
				if err := p.Write(b); err != nil {
					t.Fatalf("Write: %v, want the good samples flushed", err)
				}
				if p.Pushes() != 1 || p.Sent() != 3 {
					t.Errorf("after the first flush: %d POSTs, %d sent; want 1 and the 3 good samples", p.Pushes(), p.Sent())
				}
				var dropped float64 = -1
				for _, mv := range reg.Snapshot().Metrics {
					if mv.Name == "likwid_push_dropped_total" && mv.Labels["reason"] == reason {
						dropped = mv.Value
					}
				}
				if dropped != 1 {
					t.Errorf(`likwid_push_dropped_total{reason=%q} = %v, want 1`, reason, dropped)
				}
				k := Key{Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0}
				if pts := store.Window(k, 0, -1); len(pts) != 1 || pts[0].Value != 13714.285 {
					t.Errorf("receiver window for %v = %v, want the good sample", k, pts)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
