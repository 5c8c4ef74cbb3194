package monitor

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"likwid/internal/telemetry"
)

// fakeCollector ticks a counter and optionally fails.
type fakeCollector struct {
	name     string
	interval time.Duration
	calls    atomic.Int64
	failures int64 // fail the first N calls
	value    float64
}

func (f *fakeCollector) Name() string            { return f.name }
func (f *fakeCollector) Scope() Scope            { return ScopeNode }
func (f *fakeCollector) Interval() time.Duration { return f.interval }

func (f *fakeCollector) Collect(ctx context.Context) ([]Sample, error) {
	n := f.calls.Add(1)
	if n <= f.failures {
		return nil, errors.New("transient failure")
	}
	return []Sample{{Metric: f.name, Scope: ScopeNode, Time: float64(n), Value: f.value}}, nil
}

// waitForWaiters blocks until the fake clock has n armed timers — i.e. the
// scheduler goroutines are parked in After and an Advance will be seen.
func waitForWaiters(t *testing.T, fc *FakeClock, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fc.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d armed timers (have %d)", n, fc.Waiters())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSchedulerTicksOnFakeClock(t *testing.T) {
	fc := NewFakeClock()
	st := NewStore(16)
	c := &fakeCollector{name: "fake", interval: time.Second, value: 42}
	s := NewScheduler(SchedulerOptions{Clock: fc, Store: st})
	s.Add(c)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()

	for i := 0; i < 3; i++ {
		waitForWaiters(t, fc, 1)
		fc.Advance(time.Second)
		// The next After arms only once the tick was processed.
		waitForWaiters(t, fc, 1)
	}
	cancel()
	<-done

	if got := c.calls.Load(); got != 3 {
		t.Errorf("Collect called %d times, want 3", got)
	}
	k := Key{Metric: "fake", Scope: ScopeNode, ID: 0}
	if n := st.Len(k); n != 3 {
		t.Errorf("store holds %d points, want 3", n)
	}
	stats := s.Stats()
	if len(stats) != 1 || stats[0].Batches != 3 || stats[0].Samples != 3 {
		t.Errorf("Stats = %+v, want 3 batches / 3 samples", stats)
	}
}

func TestSchedulerCancellationStopsTicks(t *testing.T) {
	fc := NewFakeClock()
	c := &fakeCollector{name: "fake", interval: time.Second}
	s := NewScheduler(SchedulerOptions{Clock: fc})
	s.Add(c)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()
	waitForWaiters(t, fc, 1)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if got := c.calls.Load(); got != 0 {
		t.Errorf("Collect called %d times after pure cancellation, want 0", got)
	}
}

func TestSchedulerErrorBackoff(t *testing.T) {
	fc := NewFakeClock()
	var reported atomic.Int64
	c := &fakeCollector{name: "flaky", interval: time.Second, failures: 2}
	s := NewScheduler(SchedulerOptions{
		Clock:   fc,
		OnError: func(string, error) { reported.Add(1) },
	})
	s.Add(c)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()

	// Tick 1 fails -> backoff doubles to 2 s.
	waitForWaiters(t, fc, 1)
	fc.Advance(time.Second)
	waitForWaiters(t, fc, 1)
	if got := c.calls.Load(); got != 1 {
		t.Fatalf("after first tick: %d calls, want 1", got)
	}
	// 1 s is not enough any more: the timer needs the full 2 s.
	if fired := fc.Advance(time.Second); fired != 0 {
		t.Fatalf("backoff ignored: 1s fired %d timers, want 0", fired)
	}
	if got := c.calls.Load(); got != 1 {
		t.Fatalf("backoff ignored: %d calls after 1s, want still 1", got)
	}
	fc.Advance(time.Second) // completes the 2 s backoff -> second failure
	waitForWaiters(t, fc, 1)
	if got := c.calls.Load(); got != 2 {
		t.Fatalf("after backoff tick: %d calls, want 2", got)
	}
	// Third call succeeds after a 4 s backoff and resets to the interval.
	fc.Advance(4 * time.Second)
	waitForWaiters(t, fc, 1)
	if got := c.calls.Load(); got != 3 {
		t.Fatalf("after second backoff: %d calls, want 3", got)
	}
	fc.Advance(time.Second) // back to the 1 s interval
	waitForWaiters(t, fc, 1)
	if got := c.calls.Load(); got != 4 {
		t.Fatalf("after recovery: %d calls, want 4 (interval reset)", got)
	}
	cancel()
	<-done

	stats := s.Stats()
	if stats[0].Errors != 2 {
		t.Errorf("Errors = %d, want 2", stats[0].Errors)
	}
	if reported.Load() != 2 {
		t.Errorf("OnError observed %d failures, want 2", reported.Load())
	}
}

// changingCollector emits a controllable node-scope value, for the
// adaptive-interval tests.
type changingCollector struct {
	calls atomic.Int64
	value atomic.Int64 // value emitted by the next Collect
}

func (c *changingCollector) Name() string            { return "adaptive" }
func (c *changingCollector) Scope() Scope            { return ScopeNode }
func (c *changingCollector) Interval() time.Duration { return time.Second }

func (c *changingCollector) Collect(context.Context) ([]Sample, error) {
	n := c.calls.Add(1)
	return []Sample{{Metric: "gauge", Scope: ScopeNode, Time: float64(n),
		Value: float64(c.value.Load())}}, nil
}

// TestSchedulerAdaptiveIntervalStretch pins the adaptive cadence: an
// unchanged collector's interval doubles per tick up to the cap, and the
// first changed sample snaps it back to the declared interval.
func TestSchedulerAdaptiveIntervalStretch(t *testing.T) {
	fc := NewFakeClock()
	c := &changingCollector{}
	c.value.Store(42)
	s := NewScheduler(SchedulerOptions{Clock: fc, AdaptiveMax: 4 * time.Second})
	s.Add(c)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()

	step := func(d time.Duration, wantCalls int64, what string) {
		t.Helper()
		waitForWaiters(t, fc, 1)
		fc.Advance(d)
		waitForWaiters(t, fc, 1)
		if got := c.calls.Load(); got != wantCalls {
			t.Fatalf("%s: %d calls, want %d", what, got, wantCalls)
		}
	}

	step(time.Second, 1, "first tick (no baseline yet)")
	step(time.Second, 2, "second tick (unchanged, stretches to 2s)")
	// The stretched delay must actually defer the next tick.
	if fired := fc.Advance(time.Second); fired != 0 {
		t.Fatalf("stretch ignored: 1s into a 2s delay fired %d timers, want 0", fired)
	}
	if got := c.calls.Load(); got != 2 {
		t.Fatalf("stretch ignored: %d calls 1s into a 2s delay, want still 2", got)
	}
	step(time.Second, 3, "completing the 2s stretch (doubles to 4s)")
	step(4*time.Second, 4, "4s stretch (stays at the cap)")
	// A changed value snaps the cadence back to the 1 s interval.
	c.value.Store(43)
	step(4*time.Second, 5, "capped stretch with the change pending")
	step(time.Second, 6, "snapped back to the declared interval")

	cancel()
	<-done
	stats := s.Stats()
	if stats[0].Stretches != 4 {
		// Ticks 2, 3 and 4 stretched on the stable 42; tick 6 stretches
		// again because 43 is already stable against tick 5.
		t.Errorf("Stretches = %d, want 4", stats[0].Stretches)
	}
	if stats[0].Batches != 6 {
		t.Errorf("Batches = %d, want 6", stats[0].Batches)
	}
}

// TestSchedulerAdaptiveCapBelowIntervalIsInert pins the guard: a cap at
// or below a collector's own interval must not speed it up (clamping
// would sample *faster* than declared) — it keeps the declared cadence.
func TestSchedulerAdaptiveCapBelowIntervalIsInert(t *testing.T) {
	fc := NewFakeClock()
	c := &changingCollector{} // 1 s interval, constant value
	s := NewScheduler(SchedulerOptions{Clock: fc, AdaptiveMax: 500 * time.Millisecond})
	s.Add(c)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()

	for i := int64(1); i <= 3; i++ {
		waitForWaiters(t, fc, 1)
		fc.Advance(time.Second)
		waitForWaiters(t, fc, 1)
		if got := c.calls.Load(); got != i {
			t.Fatalf("tick %d: %d calls, want %d (declared 1s cadence)", i, got, i)
		}
	}
	cancel()
	<-done
	if st := s.Stats(); st[0].Stretches != 0 {
		t.Errorf("Stretches = %d, want 0 with an inert cap", st[0].Stretches)
	}
}

// TestSamplesUnchangedEpsilon pins the value comparison: relative
// epsilon with an absolute floor, and a vanished row counts as changed.
// Whether the rows are the same series is the tick plan's check
// (TestSchedulerAdaptiveRowChangeSnapsBack).
func TestSamplesUnchangedEpsilon(t *testing.T) {
	k := func(v float64) []Sample {
		return []Sample{{Metric: "m", Scope: ScopeNode, Time: 9, Value: v}}
	}
	prev := []float64{1e9}
	if !valuesUnchanged(prev, k(1e9+0.1), 1e-9) {
		t.Error("0.1 absolute on 1e9 must be within a 1e-9 relative epsilon")
	}
	if valuesUnchanged(prev, k(1e9+10), 1e-9) {
		t.Error("10 absolute on 1e9 must exceed a 1e-9 relative epsilon")
	}
	if !valuesUnchanged([]float64{0}, k(0), 1e-9) {
		t.Error("exact zeros must count as unchanged")
	}
	if valuesUnchanged(prev, nil, 1e-9) {
		t.Error("a vanished row must count as changed")
	}
	if !valuesUnchanged(nil, nil, 1e-9) {
		t.Error("two empty batches must count as unchanged")
	}
}

// adaptiveStep advances the fake clock by d and checks that the
// collector has been called want times since the scheduler started.
// The advance must fire the one timer exactly when a call is due: a
// tick that is not due must not fire.
func adaptiveStep(t *testing.T, fc *FakeClock, calls *atomic.Int64, d time.Duration, want int64, what string) {
	t.Helper()
	waitForWaiters(t, fc, 1)
	before := calls.Load()
	if fired := fc.Advance(d); int64(fired) != want-before {
		t.Fatalf("%s: the advance fired %d timers, want %d", what, fired, want-before)
	}
	waitForWaiters(t, fc, 1)
	if got := calls.Load(); got != want {
		t.Fatalf("%s: %d calls, want %d", what, got, want)
	}
}

// runAdaptive starts an adaptive scheduler (1 s interval, 4 s cap) over
// a collector that returns shape(tick), counting its calls.
func runAdaptive(t *testing.T, shape func(tick int) []Sample) (*Scheduler, *FakeClock, *atomic.Int64, func()) {
	t.Helper()
	var calls atomic.Int64
	fc := NewFakeClock()
	s := NewScheduler(SchedulerOptions{Clock: fc, AdaptiveMax: 4 * time.Second})
	s.Add(&stubCollector{name: "stub", interval: time.Second, samples: func(tick int) []Sample {
		calls.Add(1)
		return shape(tick)
	}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { s.Run(ctx); close(done) }()
	return s, fc, &calls, func() { cancel(); <-done }
}

// TestSchedulerAdaptiveRowChangeSnapsBack pins that a renamed row is a
// change for adaptive sampling even when every value stays put: the
// stretch snaps back to the declared interval.
func TestSchedulerAdaptiveRowChangeSnapsBack(t *testing.T) {
	s, fc, calls, stop := runAdaptive(t, func(tick int) []Sample {
		metric := "bw"
		if tick >= 3 {
			metric = "renamed"
		}
		return []Sample{{Metric: metric, Scope: ScopeNode, Time: float64(tick), Value: 7}}
	})
	adaptiveStep(t, fc, calls, time.Second, 1, "first tick (no baseline yet)")
	adaptiveStep(t, fc, calls, time.Second, 2, "second tick (unchanged, stretches to 2s)")
	adaptiveStep(t, fc, calls, time.Second, 2, "1s into the 2s stretch")
	adaptiveStep(t, fc, calls, time.Second, 3, "third tick (renamed row, snaps back)")
	adaptiveStep(t, fc, calls, time.Second, 4, "fourth tick on the declared interval")
	stop()
	if st := s.Stats(); st[0].Stretches != 2 {
		// Tick 2 stretched on the stable bw, tick 4 on the stable renamed
		// row; tick 3 did not.
		t.Errorf("Stretches = %d, want 2", st[0].Stretches)
	}
}

// TestSchedulerAdaptiveEmptyBatches pins the empty-batch cases: a batch
// that empties is a change, an empty batch after an empty batch is not,
// and rows that come back after an empty batch are a change again.
func TestSchedulerAdaptiveEmptyBatches(t *testing.T) {
	s, fc, calls, stop := runAdaptive(t, func(tick int) []Sample {
		if tick >= 2 && tick <= 4 {
			return nil
		}
		return []Sample{{Metric: "bw", Scope: ScopeNode, Time: float64(tick), Value: 7}}
	})
	adaptiveStep(t, fc, calls, time.Second, 1, "first tick (no baseline yet)")
	adaptiveStep(t, fc, calls, time.Second, 2, "second tick (emptied: changed)")
	adaptiveStep(t, fc, calls, time.Second, 3, "third tick (empty again: stretches to 2s)")
	adaptiveStep(t, fc, calls, time.Second, 3, "1s into the 2s stretch")
	adaptiveStep(t, fc, calls, time.Second, 4, "fourth tick (empty again: stretches to 4s)")
	adaptiveStep(t, fc, calls, 4*time.Second, 5, "fifth tick (rows back: changed)")
	adaptiveStep(t, fc, calls, time.Second, 6, "sixth tick on the declared interval")
	stop()
	if st := s.Stats(); st[0].Stretches != 3 {
		// Ticks 3 and 4 stretched on the empty batches, tick 6 on the
		// stable row.
		t.Errorf("Stretches = %d, want 3", st[0].Stretches)
	}
}

func TestFakeClockAdvanceFiresDueTimersOnly(t *testing.T) {
	fc := NewFakeClock()
	short := fc.After(time.Second)
	long := fc.After(3 * time.Second)
	fc.Advance(time.Second)
	select {
	case <-short:
	default:
		t.Fatal("1 s timer did not fire after 1 s advance")
	}
	select {
	case <-long:
		t.Fatal("3 s timer fired after only 1 s")
	default:
	}
	fc.Advance(2 * time.Second)
	select {
	case <-long:
	default:
		t.Fatal("3 s timer did not fire after 3 s total")
	}
}

// TestSchedulerPlanFollowsShapeChanges runs a collector whose shape
// changes mid-stream through the scheduler's cached tick plan and holds
// the store and the text sinks to an uncached model of every tick:
// reference roll-up, label merge, AppendBatch and the row encoders.  The
// plan must rebuild on exactly the ticks whose shape or mean flags
// changed: the first, the one after SetMean, a dropped row, a renamed
// metric and two swapped socket ids.
func TestSchedulerPlanFollowsShapeChanges(t *testing.T) {
	agentLabels, own := mustLabels(t, "job=lbm"), mustLabels(t, "cluster=emmy")
	shape := func(tick int) []Sample {
		var rows []Sample
		for _, metric := range []string{"bw", "cpi"} {
			for _, cpu := range []int{0, 1, 6, 12} {
				rows = append(rows, Sample{Metric: metric, Scope: ScopeThread, ID: cpu})
			}
		}
		rows = append(rows, Sample{Metric: "mem", Scope: ScopeSocket, ID: 0, Labels: own},
			Sample{Metric: "mem", Scope: ScopeSocket, ID: 1, Labels: own})
		if tick >= 3 {
			rows = slices.Delete(rows, 2, 3) // bw on cpu 6 stops reporting
		}
		if tick >= 5 {
			for i := range rows {
				if rows[i].Metric == "cpi" {
					rows[i].Metric = "ipc"
				}
			}
		}
		if tick >= 7 {
			n := len(rows)
			rows[n-2].ID, rows[n-1].ID = 1, 0
		}
		for i := range rows {
			rows[i].Time, rows[i].Value = float64(tick), float64(tick*100+i)/3
		}
		return rows
	}
	rebuildTicks := []int{1, 2, 3, 5, 7}
	const ticks = 8

	clock, reg := NewFakeClock(), telemetry.New()
	store, agg := NewStore(64), testAggregator(t, nil)
	var csvOut, jsonOut bytes.Buffer
	disp := NewDispatcher(ticks, NewCSVSink(&csvOut, nil), NewJSONLSink(&jsonOut, nil))
	sched := NewScheduler(SchedulerOptions{Clock: clock, Store: store, Aggregator: agg, Dispatcher: disp,
		Labels: agentLabels, Telemetry: reg})
	sched.Add(&stubCollector{name: "stub", interval: time.Second, samples: shape})
	rebuilds := reg.Counter("likwid_collector_plan_rebuilds_total", "collector", "stub")

	refStore, refAgg := NewStore(64), testAggregator(t, nil)
	var wantCSV, wantJSON []byte
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sched.Run(ctx); close(done) }()
	for tick := 1; tick <= ticks; tick++ {
		if tick == 2 {
			agg.SetMean("bw")
			refAgg.SetMean("bw")
		}
		waitForWaiters(t, clock, 1)
		clock.Advance(time.Second)
		waitForWaiters(t, clock, 1) // re-armed: the tick has been stored and published
		want := uint64(0)
		for _, r := range rebuildTicks {
			if r <= tick {
				want++
			}
		}
		if got := rebuilds.Value(); got != want {
			t.Errorf("after tick %d: %d plan rebuilds, want %d", tick, got, want)
		}

		raw := shape(tick)
		samples := append(raw, referenceRollup(refAgg, raw)...)
		for i := range samples {
			samples[i].Labels = MergeLabels(agentLabels, samples[i].Labels)
		}
		refStore.AppendBatch(Batch{Collector: "stub", Samples: samples})
		for _, sm := range samples {
			wantCSV = appendCSVRow(wantCSV, sm, "stub", false, true)
			wantJSON, _ = appendJSONLine(wantJSON, sm, "stub", 0)
		}
	}
	cancel()
	<-done
	if err := disp.Close(); err != nil {
		t.Fatal(err)
	}

	keys := store.Keys()
	if !slices.Equal(keys, refStore.Keys()) {
		t.Fatalf("store keys\n%v\nwant\n%v", keys, refStore.Keys())
	}
	for _, k := range keys {
		if got, want := store.Window(k, 0, -1), refStore.Window(k, 0, -1); !slices.Equal(got, want) {
			t.Errorf("%v window %v, want %v", k, got, want)
		}
	}
	_, gotCSV, _ := bytes.Cut(csvOut.Bytes(), []byte("\n"))
	if !bytes.Equal(gotCSV, wantCSV) {
		t.Errorf("CSV rows\n%s\nwant\n%s", gotCSV, wantCSV)
	}
	if !bytes.Equal(jsonOut.Bytes(), wantJSON) {
		t.Errorf("JSON lines\n%s\nwant\n%s", jsonOut.Bytes(), wantJSON)
	}
}
