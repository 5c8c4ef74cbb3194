// Package telemetry is the suite's self-metrics subsystem: the monitor
// measures nodes, telemetry measures the monitor.  It provides atomic
// counters, gauges and fixed-bucket histograms behind a registry whose
// snapshot is deterministic, so the agent's own internals (queue drops,
// ingest rejects, flush latencies) become observable series instead of
// write-only fields — the "measure the measurement" discipline of the
// HPM best-practices literature, applied to the monitoring stack itself.
//
// Design constraints, in order:
//
//  1. Near-zero hot-path cost.  An instrumented code path holds a
//     *Counter / *Gauge / *Histogram pointer resolved once at wiring
//     time; every update is one or two uncontended atomic operations
//     and never allocates.  Registry lookups (mutex + map) happen only
//     at registration.
//  2. Pull, don't push.  Components that already keep cheap internal
//     accounting (the store's per-series counters, the dispatcher's
//     drop counter) register read-on-snapshot funcs instead of paying a
//     second write per event.
//  3. Deterministic snapshots.  Snapshot output is sorted by metric
//     identity and timestamped through an injectable clock, so tests
//     pin it exactly and /status diffs cleanly.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the metric types in snapshots.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

var kindNames = [...]string{"counter", "gauge", "histogram"}

// String returns the lowercase kind name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// Counter is a monotonically increasing counter.  The zero value is
// usable; all methods are safe for concurrent use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable value.  The zero value is usable; all methods are
// safe for concurrent use.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta (a CAS loop, so concurrent Adds never
// lose updates).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		v := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution: counts per upper bound plus
// an overflow bucket, a total count, and a sum.  Observe is a handful of
// atomic adds with no allocation; bounds are fixed at construction so
// the hot path never rebalances.  All methods are concurrency-safe.
type Histogram struct {
	bounds []float64 // ascending upper bounds (inclusive)
	counts []atomic.Uint64
	over   atomic.Uint64 // observations above the last bound
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// newHistogram validates and copies the bounds.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("telemetry: histogram bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("telemetry: histogram bounds must ascend")
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Uint64, len(bounds)),
	}
}

// Observe records one value.  Non-finite values are dropped (a NaN
// latency is a bug upstream, and poisoning the sum would hide every
// later observation), values beyond the last bound land in the overflow
// bucket — Observe never panics.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	// Linear scan: bucket slices are short (≤ ~16) and the early bounds
	// catch most observations, so this beats a branchy binary search.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Common bucket layouts.  Exponential duration ladders cover the stack's
// scales: a store append is tens of nanoseconds, a gzip POST tens of
// milliseconds, a retry ladder tens of seconds.
var (
	// DurationBuckets spans 1 µs .. 10 s for operation latencies.
	DurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}
	// SizeBuckets spans 1 .. 32768 for sample/batch counts.
	SizeBuckets = []float64{1, 8, 64, 512, 4096, 32768}
	// SkewBuckets is symmetric around zero for clock-skew seconds: a
	// pushed batch's sent_at can be behind or ahead of the receiver.
	SkewBuckets = []float64{-60, -10, -1, -0.1, 0, 0.1, 1, 10, 60}
)

// metric is one registered instrument with its identity.
type metric struct {
	name   string
	labels []Label // name-sorted pairs
	id     string  // name + canonical label encoding
	kind   Kind

	c  *Counter
	g  *Gauge
	fn func() float64 // read-on-snapshot value (CounterFunc/GaugeFunc)
	h  *Histogram
}

// Label is one name/value pair of a metric's identity.
type Label struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// Registry holds named, labelled instruments.  Registration (mutex +
// map) is the cold path: callers resolve their instruments once at
// wiring time and hold the pointers.  Re-registering the same identity
// returns the same instrument; re-registering it as a different kind
// panics — that is a programming error, like registering two collectors
// under one name.
type Registry struct {
	mu      sync.Mutex
	now     func() time.Time
	start   time.Time
	metrics map[string]*metric
}

// New creates a registry on the wall clock.
func New() *Registry { return NewWithClock(time.Now) }

// NewWithClock creates a registry whose uptime and snapshot timestamps
// come from now — the deterministic-test entry point.
func NewWithClock(now func() time.Time) *Registry {
	if now == nil {
		now = time.Now
	}
	return &Registry{now: now, start: now(), metrics: map[string]*metric{}}
}

// metricID renders the canonical identity: name{k=v,k=v} with sorted
// label names.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// parsePairs turns variadic alternating key/value strings into sorted
// label pairs.
func parsePairs(kv []string) []Label {
	if len(kv)%2 != 0 {
		panic("telemetry: labels must be alternating name, value pairs")
	}
	if len(kv) == 0 {
		return nil
	}
	labels := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if kv[i] == "" {
			panic("telemetry: empty label name")
		}
		labels = append(labels, Label{Name: kv[i], Value: kv[i+1]})
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i].Name < labels[j].Name })
	for i := 1; i < len(labels); i++ {
		if labels[i].Name == labels[i-1].Name {
			panic("telemetry: duplicate label name " + labels[i].Name)
		}
	}
	return labels
}

// register resolves-or-creates one metric under the lock.
func (r *Registry) register(name string, kind Kind, kv []string, build func(*metric)) *metric {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	labels := parsePairs(kv)
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[id]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s already registered as a %s, not a %s", id, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: labels, id: id, kind: kind}
	build(m)
	r.metrics[id] = m
	return m
}

// Counter resolves (creating if needed) a counter.  kv is alternating
// label name/value pairs, e.g. Counter("likwid_sink_dropped_total",
// "sink", "push").
func (r *Registry) Counter(name string, kv ...string) *Counter {
	m := r.register(name, KindCounter, kv, func(m *metric) { m.c = &Counter{} })
	if m.c == nil {
		panic("telemetry: " + m.id + " is a counter func, not a writable counter")
	}
	return m.c
}

// CounterFunc registers a counter whose value is read at snapshot time —
// for components that already keep their own cheap accounting.
// Registering an identity twice keeps the first func.
func (r *Registry) CounterFunc(name string, f func() float64, kv ...string) {
	r.register(name, KindCounter, kv, func(m *metric) { m.fn = f })
}

// Gauge resolves (creating if needed) a gauge.
func (r *Registry) Gauge(name string, kv ...string) *Gauge {
	m := r.register(name, KindGauge, kv, func(m *metric) { m.g = &Gauge{} })
	if m.g == nil {
		panic("telemetry: " + m.id + " is a gauge func, not a writable gauge")
	}
	return m.g
}

// GaugeFunc registers a gauge whose value is read at snapshot time.
// Registering an identity twice keeps the first func.
func (r *Registry) GaugeFunc(name string, f func() float64, kv ...string) {
	r.register(name, KindGauge, kv, func(m *metric) { m.fn = f })
}

// Histogram resolves (creating if needed) a fixed-bucket histogram.
// Bounds must ascend; re-resolving an identity ignores the new bounds
// and returns the existing instrument.
func (r *Registry) Histogram(name string, bounds []float64, kv ...string) *Histogram {
	m := r.register(name, KindHistogram, kv, func(m *metric) { m.h = newHistogram(bounds) })
	return m.h
}

// BucketCount is one histogram bucket in snapshot shape: the count of
// observations at or below UpperBound (non-cumulative per bucket).
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MetricValue is one instrument's state in snapshot shape.  Counter and
// gauge values ride in Value; histograms carry Count/Sum/Buckets with
// observations beyond the last bound in Overflow (kept separate so the
// JSON never needs a +Inf bound).
type MetricValue struct {
	Name     string            `json:"name"`
	Labels   map[string]string `json:"labels,omitempty"`
	Kind     string            `json:"kind"`
	Value    float64           `json:"value"`
	Count    uint64            `json:"count,omitempty"`
	Sum      float64           `json:"sum,omitempty"`
	Buckets  []BucketCount     `json:"buckets,omitempty"`
	Overflow uint64            `json:"overflow,omitempty"`
}

// Snapshot is one deterministic cut of the registry.
type Snapshot struct {
	// UptimeSeconds is the registry's age on its own clock.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Metrics is sorted by name, then canonical label identity.
	Metrics []MetricValue `json:"metrics"`
}

// Snapshot captures every instrument, sorted by identity.  Funcs run
// outside the registry lock (they may take component locks of their
// own); atomic instruments are read without coordination, so a snapshot
// is a consistent ordering, not a consistent instant — exactly the
// guarantee scrape-based monitoring has always had.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	uptime := r.now().Sub(r.start).Seconds()
	r.mu.Unlock()

	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].id < ms[j].id
	})
	out := Snapshot{UptimeSeconds: uptime, Metrics: make([]MetricValue, 0, len(ms))}
	for _, m := range ms {
		mv := MetricValue{Name: m.name, Kind: m.kind.String()}
		if len(m.labels) > 0 {
			mv.Labels = make(map[string]string, len(m.labels))
			for _, l := range m.labels {
				mv.Labels[l.Name] = l.Value
			}
		}
		switch {
		case m.fn != nil:
			mv.Value = m.fn()
		case m.c != nil:
			mv.Value = float64(m.c.Value())
		case m.g != nil:
			mv.Value = m.g.Value()
		case m.h != nil:
			mv.Count = m.h.count.Load()
			mv.Sum = m.h.Sum()
			mv.Buckets = make([]BucketCount, len(m.h.bounds))
			for i, b := range m.h.bounds {
				mv.Buckets[i] = BucketCount{UpperBound: b, Count: m.h.counts[i].Load()}
			}
			mv.Overflow = m.h.over.Load()
		}
		out.Metrics = append(out.Metrics, mv)
	}
	return out
}
