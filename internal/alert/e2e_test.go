package alert

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"likwid/internal/monitor"
)

// tempCollector is the synthetic collector of the end-to-end test: one
// node-scope gauge whose value the test flips, with simulated time
// advancing one second per tick.
type tempCollector struct {
	value atomic.Uint64 // float64 bits
	ticks atomic.Int64
}

func (c *tempCollector) Name() string            { return "temp" }
func (c *tempCollector) Scope() monitor.Scope    { return monitor.ScopeNode }
func (c *tempCollector) Interval() time.Duration { return time.Second }

func (c *tempCollector) set(v float64) { c.value.Store(math.Float64bits(v)) }

func (c *tempCollector) Collect(context.Context) ([]monitor.Sample, error) {
	n := c.ticks.Add(1)
	return []monitor.Sample{{
		Metric: "temp", Scope: monitor.ScopeNode, ID: 0,
		Time: float64(n), Value: math.Float64frombits(c.value.Load()),
	}}, nil
}

// TestEndToEndAlertPipeline is the acceptance path of the subsystem: a
// scheduled collector samples into the store, a rule crosses its
// threshold, the alert walks pending → firing, the webhook notifier
// delivers the transition, GET /alerts reports it, the history series
// records it — and after recovery the alert resolves the same way.
func TestEndToEndAlertPipeline(t *testing.T) {
	// Webhook endpoint capturing delivered events.
	var hookMu sync.Mutex
	var hooks []Event
	hookSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("webhook payload: %v", err)
		}
		hookMu.Lock()
		hooks = append(hooks, ev)
		hookMu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer hookSrv.Close()
	hooksByState := func(state string) []Event {
		hookMu.Lock()
		defer hookMu.Unlock()
		var out []Event
		for _, ev := range hooks {
			if ev.State == state {
				out = append(out, ev)
			}
		}
		return out
	}

	// The monitoring side: fake clock, store, scheduler, one collector.
	fc := monitor.NewFakeClock()
	store := monitor.NewStore(256)
	col := &tempCollector{}
	col.set(50) // cool
	sched := monitor.NewScheduler(monitor.SchedulerOptions{Clock: fc, Store: store})
	sched.Add(col)

	// The alerting side: webhook notifier behind the fanout, engine on
	// the same fake clock, endpoints mounted on a live HTTP sink.
	wn, err := NewWebhookNotifier(WebhookOptions{URL: hookSrv.URL, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fanout := NewFanout(16, wn)
	defer fanout.Close()
	engine, err := NewEngine(Options{Store: store, Clock: fc, Notify: fanout},
		mustRules(t, "overheat: avg(temp, node, 3s) > 100 for 2s every 1s"))
	if err != nil {
		t.Fatal(err)
	}
	hsink, err := monitor.NewHTTPSink("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer hsink.Close()
	hsink.Handle("/alerts", http.HandlerFunc(engine.HandleAlerts))
	hsink.Handle("/rules", http.HandlerFunc(engine.HandleRules))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sched.Run(ctx) }()
	go func() { defer wg.Done(); engine.Run(ctx) }()

	// tick advances one simulated second once both loops are parked.
	tick := func() {
		waitForTimers(t, fc, 2)
		fc.Advance(time.Second)
		waitForTimers(t, fc, 2)
	}
	// tickUntil drives time until cond holds (transitions may lag a tick
	// behind the data because collector and engine race within one tick).
	tickUntil := func(what string, cond func() bool) {
		t.Helper()
		for i := 0; i < 30; i++ {
			if cond() {
				return
			}
			tick()
		}
		t.Fatalf("%s did not happen within 30 ticks", what)
	}

	getJSON := func(path string, into any) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", hsink.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}

	// Cool node: a few ticks, no alerts.
	tick()
	tick()
	var ar struct {
		Alerts []InstanceStatus `json:"alerts"`
	}
	getJSON("/alerts", &ar)
	if len(ar.Alerts) != 0 {
		t.Fatalf("cool node has alerts: %+v", ar.Alerts)
	}

	// Overheat.  The rule must pass through pending before firing: catch
	// it via the API while the hold time runs.
	col.set(150)
	tickUntil("pending", func() bool {
		getJSON("/alerts", &ar)
		return len(ar.Alerts) == 1 && ar.Alerts[0].State == "pending"
	})

	// Hold for 2 s: firing, delivered through the webhook.
	tickUntil("firing webhook delivery", func() bool {
		return len(hooksByState(EventStateFiring)) > 0
	})
	firing := hooksByState(EventStateFiring)[0]
	if firing.Rule != "overheat" || firing.Metric != "temp" || firing.Value <= 100 {
		t.Fatalf("firing event = %+v", firing)
	}
	getJSON("/alerts", &ar)
	if len(ar.Alerts) != 1 || ar.Alerts[0].State != "firing" {
		t.Fatalf("GET /alerts = %+v, want one firing", ar.Alerts)
	}
	if ar.Alerts[0].FiringSince-ar.Alerts[0].Since < 2 {
		t.Errorf("fired after %v sim seconds, want >= 2 (the for clause)",
			ar.Alerts[0].FiringSince-ar.Alerts[0].Since)
	}
	// History series recorded into the store.
	histKey := monitor.Key{Metric: "alert/overheat", Scope: monitor.ScopeNode, ID: 0}
	if p, ok := store.Latest(histKey); !ok || p.Value != 1 {
		t.Fatalf("history = %+v (%v), want value 1", p, ok)
	}

	// /rules reports the spec and live bookkeeping.
	var rr struct {
		Rules []RuleStatus `json:"rules"`
	}
	getJSON("/rules", &rr)
	if len(rr.Rules) != 1 || rr.Rules[0].Name != "overheat" || rr.Rules[0].Evals == 0 {
		t.Fatalf("GET /rules = %+v", rr.Rules)
	}
	if rr.Rules[0].Firing != 1 {
		t.Errorf("rule reports %d firing, want 1", rr.Rules[0].Firing)
	}

	// Recovery: cool back down, the alert resolves through the same path.
	col.set(50)
	tickUntil("resolved webhook delivery", func() bool {
		return len(hooksByState(EventStateResolved)) > 0
	})
	resolved := hooksByState(EventStateResolved)[0]
	if resolved.Rule != "overheat" || resolved.Since != firing.Time {
		t.Fatalf("resolved event = %+v, want since=%v", resolved, firing.Time)
	}
	getJSON("/alerts", &ar)
	if len(ar.Alerts) != 0 {
		t.Fatalf("GET /alerts after recovery = %+v, want none", ar.Alerts)
	}
	if p, _ := store.Latest(histKey); p.Value != 0 {
		t.Fatalf("history after resolve = %+v, want value 0", p)
	}
	// Exactly one firing and one resolved: no duplicate notifications.
	if f, r := len(hooksByState(EventStateFiring)), len(hooksByState(EventStateResolved)); f != 1 || r != 1 {
		t.Errorf("delivered %d firing / %d resolved events, want 1/1", f, r)
	}

	cancel()
	wg.Wait()
}
