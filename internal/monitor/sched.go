package monitor

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"likwid/internal/telemetry"
)

// Clock abstracts time so the scheduler is testable without sleeping.
type Clock interface {
	Now() time.Time
	// After fires once after d; the scheduler re-arms it every tick.
	After(d time.Duration) <-chan time.Time
}

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// RealClock is the wall clock.
var RealClock Clock = realClock{}

// FakeClock is a manually advanced clock for deterministic scheduler tests.
type FakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

// NewFakeClock starts a fake clock at an arbitrary fixed epoch.
func NewFakeClock() *FakeClock {
	return &FakeClock{now: time.Unix(0, 0)}
}

// Now returns the fake time.
func (f *FakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// After returns a channel fired by a future Advance crossing the deadline.
func (f *FakeClock) After(d time.Duration) <-chan time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &fakeWaiter{at: f.now.Add(d), ch: make(chan time.Time, 1)}
	if d <= 0 {
		w.ch <- f.now
		return w.ch
	}
	f.waiters = append(f.waiters, w)
	return w.ch
}

// Advance moves the fake time forward, firing every timer that comes due.
func (f *FakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	now := f.now
	remaining := f.waiters[:0]
	var due []*fakeWaiter
	for _, w := range f.waiters {
		if !w.at.After(now) {
			due = append(due, w)
		} else {
			remaining = append(remaining, w)
		}
	}
	f.waiters = remaining
	f.mu.Unlock()
	for _, w := range due {
		w.ch <- now
	}
}

// Waiters reports the number of armed timers (test synchronization aid).
func (f *FakeClock) Waiters() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.waiters)
}

// maxBackoff caps the per-collector error backoff.
const maxBackoff = 30 * time.Second

// SchedulerOptions wire a scheduler to its outputs.
type SchedulerOptions struct {
	// Clock defaults to the wall clock.
	Clock Clock
	// Store receives every batch (optional).
	Store *Store
	// Aggregator derives domain roll-ups appended to each batch (optional).
	Aggregator *Aggregator
	// Dispatcher receives every batch asynchronously (optional).
	Dispatcher *Dispatcher
	// AdaptiveMax enables adaptive sampling: while a collector's batches
	// are unchanged within adaptiveEpsilon, its interval stretches
	// (doubling per unchanged tick) up to this cap, and snaps back to the
	// declared interval on the first change.  Static sources (topology,
	// features) then cost almost nothing while counters keep their
	// cadence.  Zero disables stretching.
	AdaptiveMax time.Duration
	// Labels stamps this agent's label set (likwid-agent -labels, e.g.
	// job=lbm,cluster=emmy) onto every collected sample — roll-ups
	// included — before it reaches the store and the sinks, so local
	// series, pushed batches, and alert events all carry it.  Labels a
	// collector sets itself win per name; the agent identity fills in
	// underneath (the receiver's ingest-default semantics).
	Labels Labels
	// OnError observes collector failures (optional; e.g. logging).
	OnError func(collector string, err error)
	// Logger receives structured scheduler events (collector failures,
	// backoff entries); nil stays silent.  It complements OnError rather
	// than replacing it, so tests can keep hooking errors directly.
	Logger *slog.Logger
	// Telemetry, when set, instruments every collector goroutine:
	// per-collector run/error/backoff/stretch counters and run-duration
	// histograms, plus the shared tick-lag histogram.  Instruments are
	// resolved once per goroutine at startup — the tick path pays only
	// the atomic updates.
	Telemetry *telemetry.Registry
}

// CollectorStats is one collector's lifetime accounting.
type CollectorStats struct {
	Name      string
	Batches   uint64
	Samples   uint64
	Errors    uint64
	Stretches uint64  // ticks deferred by adaptive interval stretching
	LastTime  float64 // simulated time of the newest sample
}

type schedEntry struct {
	c         Collector
	batches   atomic.Uint64
	samples   atomic.Uint64
	errors    atomic.Uint64
	stretches atomic.Uint64
	last      atomic.Uint64 // float64 bits of the newest sample time
}

// Scheduler runs collectors concurrently, each on its own interval, with
// exponential backoff on failing collectors and context cancellation for
// shutdown.  Each tick produces one batch: read → aggregate → store → sink.
type Scheduler struct {
	opts    SchedulerOptions
	entries []*schedEntry
}

// NewScheduler creates a scheduler; add collectors before Run.
func NewScheduler(opts SchedulerOptions) *Scheduler {
	if opts.Clock == nil {
		opts.Clock = RealClock
	}
	return &Scheduler{opts: opts}
}

// Add registers a collector and forwards its aggregation hints.
func (s *Scheduler) Add(c Collector) {
	s.entries = append(s.entries, &schedEntry{c: c})
	if h, ok := c.(AggregationHinter); ok && s.opts.Aggregator != nil {
		s.opts.Aggregator.SetMean(h.MeanMetrics()...)
	}
}

// Run ticks every collector until the context is cancelled, then returns
// after all collector goroutines have stopped.  The dispatcher is not
// closed: the caller owns its lifecycle (it may outlive one Run).
func (s *Scheduler) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for _, e := range s.entries {
		wg.Add(1)
		go func(e *schedEntry) {
			defer wg.Done()
			s.runOne(ctx, e)
		}(e)
	}
	wg.Wait()
}

func (s *Scheduler) runOne(ctx context.Context, e *schedEntry) {
	interval := e.c.Interval()
	if interval <= 0 {
		interval = time.Second
	}
	// Telemetry instruments, resolved once per collector goroutine so
	// the tick path below is pure atomic updates.
	var (
		tRuns, tErrors, tBackoffs, tStretches, tSamples, tRebuilds *telemetry.Counter
		tRunSec, tLag                                              *telemetry.Histogram
	)
	if reg := s.opts.Telemetry; reg != nil {
		name := e.c.Name()
		tRuns = reg.Counter("likwid_collector_runs_total", "collector", name)
		tErrors = reg.Counter("likwid_collector_errors_total", "collector", name)
		tBackoffs = reg.Counter("likwid_collector_backoffs_total", "collector", name)
		tStretches = reg.Counter("likwid_collector_stretches_total", "collector", name)
		tSamples = reg.Counter("likwid_collector_samples_total", "collector", name)
		tRebuilds = reg.Counter("likwid_collector_plan_rebuilds_total", "collector", name)
		tRunSec = reg.Histogram("likwid_collector_run_seconds", telemetry.DurationBuckets, "collector", name)
		tLag = reg.Histogram("likwid_sched_tick_lag_seconds", telemetry.DurationBuckets)
	}
	delay := interval
	stretch := interval // adaptive interval, doubled while samples are static
	failures := 0
	// A cap at or below the collector's own interval cannot stretch it —
	// and clamping to it would *speed the collector up*, the inverse of
	// the feature.  Such collectors just keep their declared cadence.
	adaptive := s.opts.AdaptiveMax > interval
	// The tick plan (see tickPlan) and, under -adaptive, the previous
	// successful batch's values row by row (have: there was one).
	var plan tickPlan
	var prev []float64
	have := false
	var stamp func(Labels) Labels
	if !s.opts.Labels.Empty() {
		stamp = func(ls Labels) Labels {
			if ls.Empty() || mergedLabelCount(s.opts.Labels, ls.view()) <= maxLabels {
				return MergeLabels(s.opts.Labels, ls)
			}
			// The union would break the wire cap every downstream
			// receiver enforces: the agent stamp yields (before the
			// over-cap union can reach the intern table), keeping the
			// collector's own valid set — loudly, once per plan build.
			if s.opts.OnError != nil {
				s.opts.OnError(e.c.Name(), fmt.Errorf(
					"monitor: sample labels %q merged with the agent labels exceed the limit of %d; keeping the collector's set", ls, maxLabels))
			}
			if s.opts.Logger != nil {
				s.opts.Logger.Warn("label merge exceeds the wire cap, keeping the collector's set",
					"collector", e.c.Name(), "labels", ls.String(), "max", maxLabels)
			}
			return ls
		}
	}
	for {
		armed := s.opts.Clock.Now()
		select {
		case <-ctx.Done():
			return
		case <-s.opts.Clock.After(delay):
		}
		if tLag != nil {
			// Tick lag: how far past the intended deadline the wake-up
			// landed.  A loaded node (or a slow sink back-pressuring the
			// runtime) shows up here before it shows up as data gaps.
			if lag := s.opts.Clock.Now().Sub(armed) - delay; lag > 0 {
				tLag.Observe(lag.Seconds())
			} else {
				tLag.Observe(0)
			}
		}
		start := s.opts.Clock.Now()
		samples, err := e.c.Collect(ctx)
		if tRuns != nil {
			tRuns.Inc()
			tRunSec.Observe(s.opts.Clock.Now().Sub(start).Seconds())
		}
		if err != nil {
			e.errors.Add(1)
			if tErrors != nil {
				tErrors.Inc()
				tBackoffs.Inc()
			}
			if s.opts.OnError != nil {
				s.opts.OnError(e.c.Name(), err)
			}
			// Exponential backoff: a broken collector must not spin, and
			// must not take the healthy ones down with it.
			failures++
			delay = interval << uint(failures)
			if delay > maxBackoff || delay <= 0 {
				delay = maxBackoff
			}
			if s.opts.Logger != nil {
				s.opts.Logger.Warn("collector failed, backing off",
					"collector", e.c.Name(), "failures", failures, "next_delay", delay, "err", err)
			}
			continue
		}
		failures = 0
		delay = interval
		sameRows := plan.sameRows(samples)
		if adaptive {
			// Adaptive sampling: an unchanged batch doubles this
			// collector's next delay (capped); any changed row or value
			// snaps the cadence back to the declared interval.  The plan
			// holds the last non-empty batch's rows, so it speaks for
			// the previous batch only when that one had rows too.
			if have && (len(samples) == 0 || sameRows) && valuesUnchanged(prev, samples, adaptiveEpsilon) {
				stretch *= 2
				if stretch > s.opts.AdaptiveMax {
					stretch = s.opts.AdaptiveMax
				}
				if stretch > interval {
					e.stretches.Add(1)
					if tStretches != nil {
						tStretches.Inc()
					}
				}
			} else {
				stretch = interval
			}
			prev, have = prev[:0], true
			for _, sm := range samples {
				prev = append(prev, sm.Value)
			}
			delay = stretch
		}
		if len(samples) == 0 {
			continue
		}
		if !sameRows || !plan.sameMeans(s.opts.Aggregator) {
			plan.build(samples, s.opts.Aggregator, stamp)
			if tRebuilds != nil {
				tRebuilds.Inc()
			}
		}
		if plan.rollup != nil {
			samples = plan.rollup.run(samples, samples)
		}
		for i, ls := range plan.stamp { // empty without -labels
			samples[i].Labels = ls
		}
		batch := Batch{Collector: e.c.Name(), Time: maxTime(samples), Samples: samples}
		e.batches.Add(1)
		e.samples.Add(uint64(len(samples)))
		if tSamples != nil {
			tSamples.Add(uint64(len(samples)))
		}
		storeFloat(&e.last, batch.Time)
		if st := s.opts.Store; st != nil {
			st.AppendBatch(batch)
		}
		if s.opts.Dispatcher != nil {
			s.opts.Dispatcher.Publish(batch)
		}
	}
}

// tickPlan is what one collector's tick resolves once per batch shape:
// the roll-up recipe and the -labels stamp of every output row.  A
// collector's rows are the same series in the same order tick after
// tick, so the plan is reused while they are — one Key comparison per
// row — and while the aggregator's mean flags are unchanged; any
// difference rebuilds it.  The output rows' store series are the
// store's own shape memo (Store.AppendBatch).
type tickPlan struct {
	keys   []Key       // the collector's rows the plan was built for
	rollup *rollupPlan // nil without an aggregator
	stamp  []Labels    // each output row's labels; empty without -labels
}

// sameRows reports whether samples are the rows p was built for, in
// order.
func (p *tickPlan) sameRows(samples []Sample) bool {
	return slices.EqualFunc(samples, p.keys, func(s Sample, k Key) bool { return s.Key() == k })
}

// sameMeans reports whether the aggregator's mean flags are the ones
// p's roll-up was built under.
func (p *tickPlan) sameMeans(agg *Aggregator) bool {
	return agg == nil || p.rollup.gen == agg.gen.Load()
}

// build plans the shape of samples; stamp, when set, merges the agent
// labels under a row's own, once per run of rows sharing a label set.
func (p *tickPlan) build(samples []Sample, agg *Aggregator, stamp func(Labels) Labels) {
	p.keys, p.rollup, p.stamp = p.keys[:0], nil, p.stamp[:0]
	for _, sm := range samples {
		p.keys = append(p.keys, sm.Key())
	}
	rows := len(samples)
	if agg != nil {
		p.rollup = agg.plan(samples)
		rows += len(p.rollup.out)
	}
	if stamp == nil {
		return
	}
	var merged Labels
	for i, k := range p.keys {
		if i == 0 || k.Labels != p.keys[i-1].Labels {
			merged = stamp(k.Labels)
		}
		p.stamp = append(p.stamp, merged)
	}
	if len(p.stamp) < rows { // roll-ups carry no labels of their own
		merged = stamp(Labels{})
	}
	for len(p.stamp) < rows {
		p.stamp = append(p.stamp, merged)
	}
}

// Stats reports per-collector accounting sorted by name.
func (s *Scheduler) Stats() []CollectorStats {
	out := make([]CollectorStats, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, CollectorStats{
			Name:      e.c.Name(),
			Batches:   e.batches.Load(),
			Samples:   e.samples.Load(),
			Errors:    e.errors.Load(),
			Stretches: e.stretches.Load(),
			LastTime:  loadFloat(&e.last),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// adaptiveEpsilon is the relative difference below which two sample
// values count as unchanged for adaptive sampling; it is also the
// absolute floor for values near zero.
const adaptiveEpsilon = 1e-9

// valuesUnchanged reports whether a batch's values match the previous
// batch's, row by row, within a relative epsilon: every value within
// eps * max(|old|, |new|) (eps doubling as the absolute floor near
// zero).  The caller has matched the rows; sample times are ignored —
// time always advances, the question is whether the *values* moved.
func valuesUnchanged(prev []float64, cur []Sample, eps float64) bool {
	if len(prev) != len(cur) {
		return false
	}
	for i, s := range cur {
		p := prev[i]
		d := math.Abs(s.Value - p)
		if d > eps*math.Max(math.Abs(s.Value), math.Abs(p)) && d > eps {
			return false
		}
	}
	return true
}

func maxTime(samples []Sample) float64 {
	t := 0.0
	for _, s := range samples {
		if s.Time > t {
			t = s.Time
		}
	}
	return t
}

func storeFloat(a *atomic.Uint64, v float64) { a.Store(math.Float64bits(v)) }
func loadFloat(a *atomic.Uint64) float64     { return math.Float64frombits(a.Load()) }
