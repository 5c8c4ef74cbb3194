package alert

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"likwid/internal/monitor"
)

// captureNotifier records events for assertions.
type captureNotifier struct {
	mu     sync.Mutex
	events []Event
}

func (c *captureNotifier) Name() string { return "capture" }
func (c *captureNotifier) Write(ev Event) error {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
	return nil
}
func (c *captureNotifier) Close() error { return nil }

func (c *captureNotifier) snapshot() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// waitEvents polls until the capture holds n events (fanout delivery is
// asynchronous) or the deadline passes.
func waitEvents(t *testing.T, c *captureNotifier, n int) []Event {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		evs := c.snapshot()
		if len(evs) >= n {
			return evs
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d events (have %v)", n, evs)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustRules(t *testing.T, src string) []*Rule {
	t.Helper()
	rules, err := ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	return rules
}

func newTestEngine(t *testing.T, store *monitor.Store, src string) (*Engine, *captureNotifier, *monitor.Fanout[Event]) {
	t.Helper()
	cap := &captureNotifier{}
	fanout := NewFanout(64, cap)
	t.Cleanup(func() { _ = fanout.Close() })
	e, err := NewEngine(Options{Store: store, Notify: fanout}, mustRules(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return e, cap, fanout
}

func appendNode(store *monitor.Store, metric string, from, to, step, value float64) {
	k := monitor.Key{Metric: metric, Scope: monitor.ScopeNode, ID: 0}
	for ts := from; ts <= to; ts += step {
		store.Append(k, monitor.Point{Time: ts, Value: value})
	}
}

// TestEngineLifecycle drives one rule through the full
// inactive → pending → firing → resolved lifecycle with EvalNow and
// checks the transition events, the /alerts snapshot shape, and the
// alert history series recorded into the store.
func TestEngineLifecycle(t *testing.T) {
	store := monitor.NewStore(256)
	e, cap, _ := newTestEngine(t, store,
		"bw_low: avg(bw, node, 10s) < 100 for 20s")

	// Healthy data: no instance.
	appendNode(store, "bw", 0, 10, 1, 500)
	e.EvalNow()
	if alerts := e.Alerts(); len(alerts) != 0 {
		t.Fatalf("healthy data produced alerts: %+v", alerts)
	}

	// Condition turns true: pending, not yet firing.
	appendNode(store, "bw", 11, 25, 1, 50)
	e.EvalNow()
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].State != "pending" {
		t.Fatalf("alerts = %+v, want one pending", alerts)
	}
	if alerts[0].Since != 25 {
		t.Errorf("pending since %v, want 25", alerts[0].Since)
	}
	if len(cap.snapshot()) != 0 {
		t.Fatalf("pending must not notify, got %+v", cap.snapshot())
	}

	// Still below threshold but the hold time has not elapsed.
	appendNode(store, "bw", 26, 40, 1, 50)
	e.EvalNow()
	if alerts := e.Alerts(); alerts[0].State != "pending" {
		t.Fatalf("hold not elapsed, state = %s, want pending", alerts[0].State)
	}

	// Hold elapsed (45 - 25 >= 20): firing, one notification, history 1.
	appendNode(store, "bw", 41, 45, 1, 50)
	e.EvalNow()
	alerts = e.Alerts()
	if len(alerts) != 1 || alerts[0].State != "firing" || alerts[0].FiringSince != 45 {
		t.Fatalf("alerts = %+v, want firing since 45", alerts)
	}
	evs := waitEvents(t, cap, 1)
	if evs[0].State != EventStateFiring || evs[0].Rule != "bw_low" || evs[0].Time != 45 {
		t.Fatalf("event = %+v, want firing bw_low at t=45", evs[0])
	}
	histKey := monitor.Key{Metric: "alert/bw_low", Scope: monitor.ScopeNode, ID: 0}
	if p, ok := store.Latest(histKey); !ok || p.Value != 1 || p.Time != 45 {
		t.Fatalf("history = %+v (%v), want value 1 at t=45", p, ok)
	}

	// Continued firing does not re-notify (dedup).
	appendNode(store, "bw", 46, 60, 1, 50)
	e.EvalNow()
	e.EvalNow()
	if evs := cap.snapshot(); len(evs) != 1 {
		t.Fatalf("firing re-notified: %+v", evs)
	}

	// Recovery: resolved event, instance gone, history 0.
	appendNode(store, "bw", 61, 75, 1, 500)
	e.EvalNow()
	if alerts := e.Alerts(); len(alerts) != 0 {
		t.Fatalf("alerts after recovery = %+v, want none", alerts)
	}
	evs = waitEvents(t, cap, 2)
	if evs[1].State != EventStateResolved || evs[1].Since != 45 {
		t.Fatalf("event = %+v, want resolved with since=45", evs[1])
	}
	if p, _ := store.Latest(histKey); p.Value != 0 {
		t.Fatalf("history after resolve = %+v, want value 0", p)
	}
}

// TestEngineFlapping pins the dedup guarantee: a condition that flaps
// below the "for" horizon never notifies.
func TestEngineFlapping(t *testing.T) {
	store := monitor.NewStore(256)
	e, cap, _ := newTestEngine(t, store,
		"flappy: max(bw, node, 2s) > 100 for 30s")

	ts := 0.0
	for cycle := 0; cycle < 5; cycle++ {
		// 10 s hot (pending, below the 30 s hold), then 10 s cool.
		appendNode(store, "bw", ts, ts+9, 1, 500)
		e.EvalNow()
		if alerts := e.Alerts(); len(alerts) != 1 || alerts[0].State != "pending" {
			t.Fatalf("cycle %d: alerts = %+v, want one pending", cycle, alerts)
		}
		appendNode(store, "bw", ts+10, ts+19, 1, 10)
		e.EvalNow()
		if alerts := e.Alerts(); len(alerts) != 0 {
			t.Fatalf("cycle %d: pending not cancelled: %+v", cycle, alerts)
		}
		ts += 20
	}
	if evs := cap.snapshot(); len(evs) != 0 {
		t.Fatalf("flapping notified: %+v", evs)
	}
}

// TestEngineForZeroFiresImmediately covers the for-0 fast path.
func TestEngineForZeroFiresImmediately(t *testing.T) {
	store := monitor.NewStore(64)
	e, cap, _ := newTestEngine(t, store, "hot: min(bw, node, 5s) > 10 for 0s")
	appendNode(store, "bw", 0, 5, 1, 50)
	e.EvalNow()
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].State != "firing" {
		t.Fatalf("alerts = %+v, want immediate firing", alerts)
	}
	waitEvents(t, cap, 1)
}

// TestEngineRate checks the rate() function: a flat-lining counter.
func TestEngineRate(t *testing.T) {
	store := monitor.NewStore(64)
	e, _, _ := newTestEngine(t, store, "flat: rate(ops, node, 10s) <= 0 for 0s")
	k := monitor.Key{Metric: "ops", Scope: monitor.ScopeNode, ID: 0}
	// Rising counter: rate 10/s, no alert.
	for i := 0; i <= 5; i++ {
		store.Append(k, monitor.Point{Time: float64(i), Value: float64(i) * 10})
	}
	e.EvalNow()
	if alerts := e.Alerts(); len(alerts) != 0 {
		t.Fatalf("rising rate alerted: %+v", alerts)
	}
	// Flat counter over the lookback: rate 0 -> firing.
	for i := 6; i <= 20; i++ {
		store.Append(k, monitor.Point{Time: float64(i), Value: 50})
	}
	e.EvalNow()
	if alerts := e.Alerts(); len(alerts) != 1 || alerts[0].State != "firing" {
		t.Fatalf("flat rate alerts = %+v, want firing", alerts)
	}
}

// TestEngineImbalance checks the cross-series spread function: one
// instance for the whole selector, (max-min)/|mean| of window averages.
func TestEngineImbalance(t *testing.T) {
	store := monitor.NewStore(64)
	e, cap, _ := newTestEngine(t, store,
		"skew: imbalance(bw, socket, 10s) > 0.5 for 0s")
	k0 := monitor.Key{Metric: "bw", Scope: monitor.ScopeSocket, ID: 0}
	k1 := monitor.Key{Metric: "bw", Scope: monitor.ScopeSocket, ID: 1}
	for i := 0; i <= 10; i++ {
		store.Append(k0, monitor.Point{Time: float64(i), Value: 100})
		store.Append(k1, monitor.Point{Time: float64(i), Value: 110})
	}
	e.EvalNow()
	if alerts := e.Alerts(); len(alerts) != 0 {
		t.Fatalf("balanced sockets alerted: %+v", alerts)
	}
	// Socket 1 collapses: spread (300-100)/200 = 1 > 0.5.
	for i := 11; i <= 20; i++ {
		store.Append(k0, monitor.Point{Time: float64(i), Value: 300})
		store.Append(k1, monitor.Point{Time: float64(i), Value: 100})
	}
	e.EvalNow()
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].State != "firing" {
		t.Fatalf("imbalance alerts = %+v, want one firing", alerts)
	}
	evs := waitEvents(t, cap, 1)
	if evs[0].Metric != "bw" || evs[0].Scope != "socket" {
		t.Fatalf("imbalance event = %+v, want selector-keyed instance", evs[0])
	}
	if evs[0].Value <= 0.5 {
		t.Fatalf("imbalance value = %v, want > 0.5", evs[0].Value)
	}
}

// TestEngineImbalanceZeroMeanStaysFinite pins the JSON-safety guard:
// signed members cancelling to a zero mean must not produce an infinite
// spread (events and /alerts are JSON, which cannot carry Inf).
func TestEngineImbalanceZeroMeanStaysFinite(t *testing.T) {
	store := monitor.NewStore(64)
	e, cap, _ := newTestEngine(t, store,
		"skew: imbalance(delta, socket, 10s) > 1 for 0s")
	k0 := monitor.Key{Metric: "delta", Scope: monitor.ScopeSocket, ID: 0}
	k1 := monitor.Key{Metric: "delta", Scope: monitor.ScopeSocket, ID: 1}
	for i := 0; i <= 5; i++ {
		store.Append(k0, monitor.Point{Time: float64(i), Value: 5})
		store.Append(k1, monitor.Point{Time: float64(i), Value: -5})
	}
	e.EvalNow()
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].State != "firing" {
		t.Fatalf("alerts = %+v, want firing (spread 2 > 1)", alerts)
	}
	if v := alerts[0].Value; math.IsInf(v, 0) || math.IsNaN(v) || v != 2 {
		t.Fatalf("imbalance value = %v, want finite 2 ((5-(-5))/((5+5)/2))", v)
	}
	evs := waitEvents(t, cap, 1)
	if _, err := json.Marshal(evs[0]); err != nil {
		t.Fatalf("event not JSON-encodable: %v", err)
	}
}

// appendSourced appends a fleet series: one agent's metric at node scope.
func appendSourced(store *monitor.Store, source, metric string, from, to, step, value float64) {
	k := monitor.Key{Source: source, Metric: metric, Scope: monitor.ScopeNode, ID: 0}
	for ts := from; ts <= to; ts += step {
		store.Append(k, monitor.Point{Time: ts, Value: value})
	}
}

// TestEngineWildcardFleet pins the receiver use case: one rule watching
// every source's series through the '*' source selector, one alert
// instance per source, history keyed per source.
func TestEngineWildcardFleet(t *testing.T) {
	store := monitor.NewStore(64)
	e, cap, _ := newTestEngine(t, store,
		"fleet_idle: avg(*/bw, node, 10s) < 100 for 0s")
	appendSourced(store, "nodeA", "bw", 0, 10, 1, 50)
	appendSourced(store, "nodeB", "bw", 0, 10, 1, 500)
	e.EvalNow()
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].Source != "nodeA" || alerts[0].Metric != "bw" {
		t.Fatalf("alerts = %+v, want only nodeA's bw firing", alerts)
	}
	evs := waitEvents(t, cap, 1)
	if evs[0].Source != "nodeA" || evs[0].Metric != "bw" {
		t.Fatalf("event = %+v, want source nodeA metric bw", evs[0])
	}
	// Per-source history keys so two fleet nodes do not collapse into
	// one series — source is a Key dimension, not a metric suffix.
	k := monitor.Key{Source: "nodeA", Metric: "alert/fleet_idle", Scope: monitor.ScopeNode, ID: 0}
	if p, ok := store.Latest(k); !ok || p.Value != 1 {
		t.Fatalf("fleet history = %+v (%v), want value 1", p, ok)
	}
	if _, ok := store.Latest(monitor.Key{Source: "nodeB", Metric: "alert/fleet_idle", Scope: monitor.ScopeNode, ID: 0}); ok {
		t.Fatal("healthy nodeB grew a history transition")
	}
}

// TestEngineReload pins hot reload: the rule set swaps atomically,
// unchanged rules keep their live instances, removed or edited rules
// drop theirs, and new rules evaluate immediately.
func TestEngineReload(t *testing.T) {
	store := monitor.NewStore(256)
	e, cap, _ := newTestEngine(t, store,
		"bw_low: avg(bw, node, 10s) < 100 for 0s\nunchanged: max(bw, node, 10s) < 100 for 0s")
	appendNode(store, "bw", 0, 10, 1, 50)
	e.EvalNow()
	if alerts := e.Alerts(); len(alerts) != 2 {
		t.Fatalf("alerts = %+v, want both rules firing", alerts)
	}
	waitEvents(t, cap, 2)

	// Reload: bw_low edited (new threshold), unchanged kept verbatim,
	// bw_high added.
	e.Reload(mustRules(t,
		"bw_low: avg(bw, node, 10s) < 60 for 0s\nunchanged: max(bw, node, 10s) < 100 for 0s\nbw_high: min(bw, node, 10s) > 10 for 0s"))
	rules := e.Rules()
	if len(rules) != 3 || rules[2].Name != "bw_high" {
		t.Fatalf("rules after reload = %+v, want 3 with bw_high last", rules)
	}
	// The edited rule's old instance is gone until the next eval; the
	// unchanged rule keeps its firing instance (no duplicate event).
	alerts := e.Alerts()
	if len(alerts) != 1 || alerts[0].Rule != "unchanged" {
		t.Fatalf("alerts after reload = %+v, want only the unchanged rule's instance", alerts)
	}
	e.EvalNow()
	alerts = e.Alerts()
	if len(alerts) != 3 {
		t.Fatalf("alerts after re-eval = %+v, want all three firing", alerts)
	}
	// unchanged must NOT have re-fired: 2 initial + bw_low re-fire +
	// bw_high fire = 4 events total.
	evs := waitEvents(t, cap, 4)
	if len(evs) != 4 {
		t.Fatalf("events = %+v, want exactly 4", evs)
	}
	count := map[string]int{}
	for _, ev := range evs {
		count[ev.Rule]++
	}
	if count["unchanged"] != 1 || count["bw_low"] != 2 || count["bw_high"] != 1 {
		t.Fatalf("event counts = %+v, want unchanged:1 bw_low:2 bw_high:1", count)
	}
	// Rule bookkeeping for surviving rules keeps its eval counter.
	for _, rs := range e.RuleStatuses() {
		if rs.Name == "unchanged" && rs.Evals != 2 {
			t.Errorf("unchanged evals = %d, want 2 (bookkeeping preserved)", rs.Evals)
		}
	}
}

// TestEngineReloadIdenticalKeepsTimers pins that re-posting the same
// rule file does not restart the evaluation goroutines: a
// config-management loop reloading every few seconds must not starve a
// rule whose cadence is longer than the reload period.
func TestEngineReloadIdenticalKeepsTimers(t *testing.T) {
	store := monitor.NewStore(64)
	appendNode(store, "bw", 0, 10, 1, 50)
	spec := "bw_low: avg(bw, node, 10s) < 100 for 0s\n"
	e, cap, _ := newTestEngine(t, store, spec)
	e.EvalNow()
	waitEvents(t, cap, 1)

	e.Reload(mustRules(t, spec))
	select {
	case <-e.reload:
		t.Fatal("spec-identical reload signalled a goroutine restart")
	default:
	}
	// Instances and bookkeeping survive untouched.
	if alerts := e.Alerts(); len(alerts) != 1 || alerts[0].State != "firing" {
		t.Fatalf("alerts after identical reload = %+v, want the firing instance kept", alerts)
	}
	if sts := e.RuleStatuses(); sts[0].Evals != 1 {
		t.Fatalf("evals = %d after identical reload, want 1 preserved", sts[0].Evals)
	}

	// A genuinely different set still signals.
	e.Reload(mustRules(t, "other: max(bw, node, 10s) < 100 for 0s"))
	select {
	case <-e.reload:
	default:
		t.Fatal("changed reload did not signal a restart")
	}
}

// TestEngineReloadRestartsRunLoop drives Reload under a running engine:
// the new rule set takes over the evaluation goroutines.
func TestEngineReloadRestartsRunLoop(t *testing.T) {
	fc := monitor.NewFakeClock()
	store := monitor.NewStore(64)
	appendNode(store, "bw", 0, 10, 1, 50)
	cap := &captureNotifier{}
	fanout := NewFanout(16, cap)
	defer fanout.Close()
	e, err := NewEngine(Options{Store: store, Clock: fc, Notify: fanout},
		mustRules(t, "old: avg(bw, node, 10s) < 100 for 0s every 2s"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()
	waitForTimers(t, fc, 1)

	e.Reload(mustRules(t, "new: min(bw, node, 10s) < 100 for 0s every 2s"))
	// The cancelled goroutine's timer stays armed in the fake clock (it
	// fires into a buffered channel nobody reads), so the restarted
	// goroutine's arm is the second waiter.
	waitForTimers(t, fc, 2)
	fc.Advance(2 * time.Second)
	evs := waitEvents(t, cap, 1)
	if evs[0].Rule != "new" {
		t.Fatalf("event = %+v, want the new rule firing", evs[0])
	}
	sts := e.RuleStatuses()
	if len(sts) != 1 || sts[0].Name != "new" || sts[0].Evals == 0 {
		t.Fatalf("statuses after reload = %+v, want the new rule evaluated", sts)
	}
	cancel()
	<-done
}

// TestAlertHistoryCompactsByLastValue pins the step compaction of the
// sparse 0/1 transition series: once a fire/resolve pair is evicted
// into a retention bucket, the windowed history reads 0 or 1 — never a
// 0.5 average.
func TestAlertHistoryCompactsByLastValue(t *testing.T) {
	// Tiny raw ring (2 points) with one coarse tier, so the second
	// firing episode evicts the first into a bucket.
	store := monitor.NewStore(2, monitor.Tier{Resolution: 1000, Capacity: 8})
	e, cap, _ := newTestEngine(t, store, "bw_low: avg(bw, node, 10s) < 100 for 0s")

	flip := func(from, to float64, low bool) {
		v := 500.0
		if low {
			v = 50
		}
		appendNode(store, "bw", from, to, 1, v)
		e.EvalNow()
	}
	flip(0, 10, true)   // fire at 10
	flip(11, 30, false) // resolve at 30
	flip(31, 50, true)  // fire again at 50 — evicts the first pair
	flip(51, 70, false) // resolve at 70
	waitEvents(t, cap, 4)

	histKey := monitor.Key{Metric: "alert/bw_low", Scope: monitor.ScopeNode, ID: 0}
	pts := store.Window(histKey, 0, -1)
	if len(pts) == 0 {
		t.Fatal("no history points")
	}
	for _, p := range pts {
		if p.Value != 0 && p.Value != 1 {
			t.Errorf("history point %+v shows a value never recorded (mean-compaction noise)", p)
		}
	}
	// The bucket covering the evicted fire(1)/resolve(0) pair reads the
	// last state, 0.
	buckets := store.Buckets(histKey, 1000, 0, -1)
	if len(buckets) == 0 {
		t.Fatal("no history buckets compacted")
	}
	if b := buckets[0]; b.Avg != 0 || b.Min != 0 || b.Max != 1 {
		t.Errorf("history bucket = %+v, want last=0 with exact min/max", b)
	}
}

// TestEngineStaleSeriesResolves pins the staleness path: a firing alert
// whose series stops advancing (a decommissioned fleet agent) resolves
// after StaleAfter of wall time, stays parked instead of re-firing off
// the frozen window, and restarts its lifecycle when data resumes.
func TestEngineStaleSeriesResolves(t *testing.T) {
	fc := monitor.NewFakeClock()
	store := monitor.NewStore(256)
	cap := &captureNotifier{}
	fanout := NewFanout(16, cap)
	defer fanout.Close()
	e, err := NewEngine(Options{
		Store: store, Clock: fc, Notify: fanout, StaleAfter: time.Minute,
	}, mustRules(t, "hot: avg(temp, node, 10s) > 100 for 0s"))
	if err != nil {
		t.Fatal(err)
	}

	appendNode(store, "temp", 0, 10, 1, 200)
	e.EvalNow()
	if alerts := e.Alerts(); len(alerts) != 1 || alerts[0].State != "firing" {
		t.Fatalf("alerts = %+v, want firing", alerts)
	}
	waitEvents(t, cap, 1)

	// Frozen data, wall time below the horizon: still firing.
	fc.Advance(30 * time.Second)
	e.EvalNow()
	if alerts := e.Alerts(); len(alerts) != 1 {
		t.Fatalf("alerts froze early: %+v", alerts)
	}

	// Past the horizon: resolved and parked — no re-fire on later evals.
	fc.Advance(31 * time.Second)
	e.EvalNow()
	if alerts := e.Alerts(); len(alerts) != 0 {
		t.Fatalf("stale alert still visible: %+v", alerts)
	}
	evs := waitEvents(t, cap, 2)
	if evs[1].State != EventStateResolved {
		t.Fatalf("event = %+v, want resolved", evs[1])
	}
	e.EvalNow()
	e.EvalNow()
	if evs := cap.snapshot(); len(evs) != 2 {
		t.Fatalf("parked instance re-notified: %+v", evs)
	}

	// Data resumes hot: a fresh firing episode.
	appendNode(store, "temp", 11, 20, 1, 200)
	e.EvalNow()
	if alerts := e.Alerts(); len(alerts) != 1 || alerts[0].State != "firing" {
		t.Fatalf("resumed alerts = %+v, want firing again", alerts)
	}
	if evs := waitEvents(t, cap, 3); evs[2].State != EventStateFiring {
		t.Fatalf("event = %+v, want a fresh firing", evs[2])
	}
}

// TestEngineRuleStatusBookkeeping covers per-rule evals / last error.
func TestEngineRuleStatusBookkeeping(t *testing.T) {
	store := monitor.NewStore(64)
	e, _, _ := newTestEngine(t, store, "ghost: avg(no_such, node, 10s) < 1 for 0s")
	e.EvalNow()
	e.EvalNow()
	sts := e.RuleStatuses()
	if len(sts) != 1 {
		t.Fatalf("statuses = %+v, want 1", sts)
	}
	if sts[0].Evals != 2 {
		t.Errorf("evals = %d, want 2", sts[0].Evals)
	}
	if !strings.Contains(sts[0].LastError, "no series matches") {
		t.Errorf("last error = %q, want 'no series matches'", sts[0].LastError)
	}
	if sts[0].LastEval == "" {
		t.Errorf("last eval not recorded")
	}
	// The series appears: the error clears.
	appendNode(store, "no_such", 0, 5, 1, 10)
	e.EvalNow()
	if sts := e.RuleStatuses(); sts[0].LastError != "" {
		t.Errorf("last error = %q, want cleared", sts[0].LastError)
	}
}

// TestRuleStatusInstanceCounts pins the per-rule pending/firing counts
// of RuleStatuses — now taken in one pass over the instance map — to
// the per-rule nested loop they replace, on a table of mixed pending,
// firing and stale instances, some of a rule that is not loaded.
func TestRuleStatusInstanceCounts(t *testing.T) {
	const nRules, nSeries = 7, 40
	var src strings.Builder
	for i := 0; i < nRules; i++ {
		fmt.Fprintf(&src, "r%d: avg(bw, node, 10s) < 1 for 0s\n", i)
	}
	e, _, _ := newTestEngine(t, monitor.NewStore(4), src.String())
	for i := 0; i <= nRules; i++ { // r7 has instances but no rule
		for j := 0; j < nSeries; j++ {
			id := instKey{rule: fmt.Sprintf("r%d", i), key: monitor.Key{
				Source: fmt.Sprintf("node%02d", j), Metric: "bw", Scope: monitor.ScopeNode}}
			e.insts[id] = &instance{state: State((i + j/3) % 2), stale: (i+j)%5 == 0}
		}
	}
	sts := e.RuleStatuses()
	if len(sts) != nRules {
		t.Fatalf("%d statuses, want %d", len(sts), nRules)
	}
	total := 0
	for i, rs := range sts {
		if want := fmt.Sprintf("r%d", i); rs.Name != want {
			t.Fatalf("status %d is %q, want %q (file order)", i, rs.Name, want)
		}
		pending, firing := 0, 0
		for id, inst := range e.insts {
			if id.rule != rs.Name || inst.stale {
				continue
			}
			switch inst.state {
			case StatePending:
				pending++
			case StateFiring:
				firing++
			}
		}
		if rs.Pending != pending || rs.Firing != firing {
			t.Errorf("%s: pending/firing = %d/%d, want %d/%d", rs.Name, rs.Pending, rs.Firing, pending, firing)
		}
		total += rs.Pending + rs.Firing
	}
	if want := nRules * nSeries * 4 / 5; total != want {
		t.Errorf("%d instances counted, want %d (the non-stale four fifths)", total, want)
	}
}

// TestEngineRunOnFakeClock drives the scheduled loop: each rule
// evaluates on its own cadence under a fake clock.
func TestEngineRunOnFakeClock(t *testing.T) {
	fc := monitor.NewFakeClock()
	store := monitor.NewStore(64)
	appendNode(store, "bw", 0, 10, 1, 50)
	cap := &captureNotifier{}
	fanout := NewFanout(16, cap)
	defer fanout.Close()
	e, err := NewEngine(Options{Store: store, Clock: fc, Notify: fanout},
		mustRules(t, "low: avg(bw, node, 10s) < 100 for 0s every 2s"))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { e.Run(ctx); close(done) }()

	waitForTimers(t, fc, 1)
	fc.Advance(time.Second) // 1 s: below the 2 s cadence, no eval
	if n := e.RuleStatuses()[0].Evals; n != 0 {
		t.Fatalf("evaluated %d times after 1s, want 0 (cadence 2s)", n)
	}
	fc.Advance(time.Second) // 2 s: evaluates, fires
	waitForTimers(t, fc, 1)
	if n := e.RuleStatuses()[0].Evals; n != 1 {
		t.Fatalf("evaluated %d times after 2s, want 1", n)
	}
	waitEvents(t, cap, 1)
	cancel()
	<-done
}

// waitForTimers blocks until the fake clock has n armed timers.
func waitForTimers(t *testing.T, fc *monitor.FakeClock, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for fc.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d armed timers (have %d)", n, fc.Waiters())
		}
		time.Sleep(time.Millisecond)
	}
}
