package telemetry

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterSemantics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d", c.Value())
	}
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("Value = %d, want 42", got)
	}
}

func TestGaugeSemantics(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("Value = %v, want 1.5", got)
	}
}

func TestHistogramSemantics(t *testing.T) {
	h := newHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 100} {
		h.Observe(v)
	}
	// Dropped, never counted, never poisoning the sum.
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	if got := h.Count(); got != 5 {
		t.Errorf("Count = %d, want 5 (non-finite observations dropped)", got)
	}
	if got := h.Sum(); got != 105.65 {
		t.Errorf("Sum = %v, want 105.65", got)
	}
	want := []uint64{2, 1, 1} // <=0.1: {0.05, 0.1}, <=1: {0.5}, <=10: {5}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if got := h.over.Load(); got != 1 {
		t.Errorf("overflow = %d, want 1 (the 100)", got)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":      {},
		"descending": {1, 0.5},
		"nan":        {math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds did not panic", name)
				}
			}()
			newHistogram(bounds)
		}()
	}
}

// TestConcurrentIncrements hammers every instrument kind from many
// goroutines — the -race guarantee that hot-path instrumentation can be
// dropped into any pipeline stage without a lock.
func TestConcurrentIncrements(t *testing.T) {
	r := New()
	c := r.Counter("ops_total")
	g := r.Gauge("depth")
	h := r.Histogram("latency_seconds", DurationBuckets)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != workers*per {
		t.Errorf("gauge = %v, want %d (CAS adds must not lose updates)", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	if got, want := h.Sum(), float64(workers*per)*0.001; math.Abs(got-want) > 1e-6 {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := New()
	a := r.Counter("drops_total", "sink", "push")
	b := r.Counter("drops_total", "sink", "push")
	if a != b {
		t.Error("same identity resolved two counters")
	}
	other := r.Counter("drops_total", "sink", "csv")
	if a == other {
		t.Error("different label values collapsed into one counter")
	}
	// Label order must not matter for identity.
	x := r.Gauge("g", "b", "2", "a", "1")
	y := r.Gauge("g", "a", "1", "b", "2")
	if x != y {
		t.Error("label order changed the metric identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m")
}

// TestSnapshotDeterministic pins the snapshot contract with a fake
// clock: identical registration and update sequences produce identical
// snapshots, sorted by metric identity, with the uptime taken from the
// injected clock.
func TestSnapshotDeterministic(t *testing.T) {
	build := func() Snapshot {
		now := time.Unix(1000, 0)
		r := NewWithClock(func() time.Time { return now })
		// Register in a scrambled order; the snapshot must sort.
		r.Counter("zeta_total", "stage", "gzip").Add(3)
		r.Gauge("alpha_depth").Set(7)
		r.Histogram("mid_seconds", []float64{0.1, 1}).Observe(0.5)
		r.Counter("zeta_total", "stage", "raw").Add(9)
		r.GaugeFunc("beta_series", func() float64 { return 11 })
		now = now.Add(90 * time.Second)
		return r.Snapshot()
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical builds produced different snapshots:\n%+v\n%+v", a, b)
	}
	if a.UptimeSeconds != 90 {
		t.Errorf("uptime = %v, want 90 (the fake clock's advance)", a.UptimeSeconds)
	}
	var names []string
	for _, m := range a.Metrics {
		names = append(names, metricID(m.Name, nil)+"|"+m.Kind)
	}
	wantOrder := []string{"alpha_depth|gauge", "beta_series|gauge", "mid_seconds|histogram", "zeta_total|counter", "zeta_total|counter"}
	if !reflect.DeepEqual(names, wantOrder) {
		t.Errorf("snapshot order = %v, want %v", names, wantOrder)
	}
	// The two zeta variants stay distinct and sorted by label identity.
	if a.Metrics[3].Labels["stage"] != "gzip" || a.Metrics[4].Labels["stage"] != "raw" {
		t.Errorf("labelled variants out of order: %+v / %+v", a.Metrics[3], a.Metrics[4])
	}
	if a.Metrics[2].Count != 1 || a.Metrics[2].Sum != 0.5 {
		t.Errorf("histogram snapshot = %+v, want count 1 sum 0.5", a.Metrics[2])
	}
}

func TestSnapshotFuncsReadLive(t *testing.T) {
	r := New()
	v := 1.0
	var mu sync.Mutex
	r.GaugeFunc("live", func() float64 { mu.Lock(); defer mu.Unlock(); return v })
	if got := r.Snapshot().Metrics[0].Value; got != 1 {
		t.Fatalf("first snapshot = %v", got)
	}
	mu.Lock()
	v = 2
	mu.Unlock()
	if got := r.Snapshot().Metrics[0].Value; got != 2 {
		t.Errorf("second snapshot = %v, want the updated 2", got)
	}
}

func TestStatusHandler(t *testing.T) {
	now := time.Unix(0, 0)
	r := NewWithClock(func() time.Time { return now })
	r.Counter("likwid_ingest_rejected_total", "reason", "decode").Add(4)
	now = now.Add(30 * time.Second)

	h := StatusHandler(r)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/status", nil))
	resp := w.Result()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status = %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("/status is not JSON: %v", err)
	}
	if st.Status != "ok" || st.UptimeSeconds != 30 {
		t.Errorf("status = %q uptime = %v, want ok/30", st.Status, st.UptimeSeconds)
	}
	if st.Go.Goroutines <= 0 || st.Go.Version == "" {
		t.Errorf("go stats missing: %+v", st.Go)
	}
	if len(st.Metrics) != 1 || st.Metrics[0].Value != 4 {
		t.Errorf("metrics = %+v, want the one counter at 4", st.Metrics)
	}

	post := httptest.NewRecorder()
	h.ServeHTTP(post, httptest.NewRequest(http.MethodPost, "/status", nil))
	if post.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /status = %d, want 405", post.Code)
	}
}
