package rules

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// testRule is the smallest rule: a name, a spec body and a cadence.
type testRule struct {
	name, body string
	every      time.Duration
}

func (r *testRule) String() string         { return fmt.Sprintf("%s: %s every %s", r.name, r.body, r.every) }
func (r *testRule) RuleName() string       { return r.name }
func (r *testRule) Cadence() time.Duration { return r.every }

// counter is the trivial engine under the runtime: it counts cold
// resolutions and evaluations per rule and fails on demand.
type counter struct {
	mu        sync.Mutex
	resolves  map[string]int
	evals     map[string]int
	fail      map[string]error            // evaluation error per rule
	inEval    func(r *testRule)           // called inside Evaluate, outside mu
	inResolve func()                      // called inside Resolve, outside mu
	observed  []string                    // OnError calls, "rule: err"
	busy      map[*monitor.Point]struct{} // window buffers inside an evaluation
	shared    bool                        // two evaluations held one buffer
}

func newCounter() *counter {
	return &counter{
		resolves: map[string]int{}, evals: map[string]int{},
		fail: map[string]error{}, busy: map[*monitor.Point]struct{}{},
	}
}

func (c *counter) count(m map[string]int, name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return m[name]
}

func (c *counter) setFail(name string, err error) {
	c.mu.Lock()
	c.fail[name] = err
	c.mu.Unlock()
}

func (c *counter) config(store *monitor.Store, clock monitor.Clock) Config[*testRule, int] {
	return Config[*testRule, int]{
		Kind:         "test",
		Store:        store,
		Clock:        clock,
		DefaultEvery: 5 * time.Second,
		OnError: func(rule string, err error) {
			c.mu.Lock()
			c.observed = append(c.observed, rule+": "+err.Error())
			c.mu.Unlock()
		},
		Resolve: func(r *testRule) int {
			c.mu.Lock()
			c.resolves[r.name]++
			n, hook := c.resolves[r.name], c.inResolve
			c.mu.Unlock()
			if hook != nil {
				hook()
			}
			return n
		},
		Evaluate: func(r *testRule, _ int, window []monitor.Point) ([]monitor.Point, error) {
			// Write through the buffer the way a WindowInto caller does,
			// and claim it for the duration of the evaluation.
			window = append(window[:0], monitor.Point{Time: 1, Value: 1})
			c.mu.Lock()
			if _, taken := c.busy[&window[0]]; taken {
				c.shared = true
			}
			c.busy[&window[0]] = struct{}{}
			hook := c.inEval
			c.mu.Unlock()
			if hook != nil {
				hook(r)
			}
			c.mu.Lock()
			delete(c.busy, &window[0])
			c.evals[r.name]++
			err := c.fail[r.name]
			c.mu.Unlock()
			return window, err
		},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// startRun runs the runtime in the background and returns its stop.
func startRun[R Rule, Res any](rt *Runtime[R, Res]) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { rt.Run(ctx); close(done) }()
	return func() { cancel(); <-done }
}

// TestRunPerRuleCadence: each rule runs on its own timer — its "every"
// when it has one, DefaultEvery otherwise — and Statuses reports both.
func TestRunPerRuleCadence(t *testing.T) {
	fc := monitor.NewFakeClock()
	c := newCounter()
	fast := &testRule{name: "fast", body: "x", every: 2 * time.Second}
	slow := &testRule{name: "slow", body: "x"}
	rt := New(c.config(monitor.NewStore(4), fc), []*testRule{fast, slow})
	defer startRun(rt)()

	waitFor(t, "both timers armed", func() bool { return fc.Waiters() == 2 })
	fc.Advance(2 * time.Second)
	waitFor(t, "fast's first evaluation", func() bool { return c.count(c.evals, "fast") == 1 })
	waitFor(t, "fast re-armed", func() bool { return fc.Waiters() == 2 })
	if n := c.count(c.evals, "slow"); n != 0 {
		t.Fatalf("slow evaluated %d times at t=2s, want 0 before its 5s default", n)
	}
	fc.Advance(2 * time.Second)
	waitFor(t, "fast's second evaluation", func() bool { return c.count(c.evals, "fast") == 2 })
	waitFor(t, "fast re-armed", func() bool { return fc.Waiters() == 2 })
	fc.Advance(time.Second) // t=5s
	waitFor(t, "slow's first evaluation", func() bool { return c.count(c.evals, "slow") == 1 })
	if n := c.count(c.evals, "fast"); n != 2 {
		t.Fatalf("fast evaluated %d times at t=5s, want 2", n)
	}

	sts := rt.Statuses()
	if len(sts) != 2 || sts[0].Name != "fast" || sts[1].Name != "slow" {
		t.Fatalf("statuses = %+v, want fast then slow", sts)
	}
	if sts[0].Every != "2s" || sts[1].Every != "5s" {
		t.Errorf("every = %q, %q; want 2s (override), 5s (default)", sts[0].Every, sts[1].Every)
	}
	if sts[0].Evals != 2 || sts[1].Evals != 1 || sts[0].Spec != fast.String() {
		t.Errorf("statuses = %+v, want evals 2 and 1 with the rendered spec", sts)
	}
	if want := fc.Now().Format(time.RFC3339); sts[1].LastEval != want {
		t.Errorf("slow last_eval = %q, want %q", sts[1].LastEval, want)
	}
}

// TestReloadIdenticalKeepsTimers: re-posting the same set neither
// signals a restart nor re-arms a timer, so a cadence longer than the
// reload period still comes due on time, and bookkeeping is untouched.
func TestReloadIdenticalKeepsTimers(t *testing.T) {
	fc := monitor.NewFakeClock()
	c := newCounter()
	rt := New(c.config(monitor.NewStore(4), fc), []*testRule{{name: "r", body: "x", every: 10 * time.Second}})
	defer startRun(rt)()
	waitFor(t, "timer armed", func() bool { return fc.Waiters() == 1 })

	fc.Advance(6 * time.Second)
	unchanged := rt.Reload([]*testRule{{name: "r", body: "x", every: 10 * time.Second}})
	if !unchanged["r"] {
		t.Fatalf("unchanged = %v, want r reported spec-identical", unchanged)
	}
	select {
	case <-rt.Restart():
		t.Fatal("spec-identical reload signalled a restart")
	default:
	}
	if n := fc.Waiters(); n != 1 {
		t.Fatalf("%d timers armed after identical reload, want the original 1", n)
	}
	fc.Advance(4 * time.Second) // the original timer's 10s
	waitFor(t, "evaluation on the kept timer", func() bool { return c.count(c.evals, "r") == 1 })
}

// TestReloadRestartsExactlyOnce: a changed set hands Run one restart
// however many reloads piled up, the new goroutines take over the
// cadence, and a rule keeps its bookkeeping while its name survives.
func TestReloadRestartsExactlyOnce(t *testing.T) {
	fc := monitor.NewFakeClock()
	c := newCounter()
	rt := New(c.config(monitor.NewStore(4), fc), []*testRule{{name: "keep", body: "x", every: 2 * time.Second}})
	rt.EvalNow()

	// Not running yet: two changed reloads leave one pending restart.
	rt.Reload([]*testRule{{name: "keep", body: "y", every: 2 * time.Second}})
	unchanged := rt.Reload([]*testRule{
		{name: "keep", body: "y", every: 2 * time.Second},
		{name: "new", body: "x", every: 2 * time.Second},
	})
	if !unchanged["keep"] || unchanged["new"] {
		t.Fatalf("unchanged = %v, want keep only", unchanged)
	}
	select {
	case <-rt.Restart():
	default:
		t.Fatal("changed reload did not signal a restart")
	}
	select {
	case <-rt.Restart():
		t.Fatal("two reloads queued two restarts")
	default:
	}
	if sts := rt.Statuses(); len(sts) != 2 || sts[0].Evals != 1 || sts[1].Evals != 0 {
		t.Fatalf("statuses after reload = %+v, want keep's eval kept and new at 0", sts)
	}

	// Running: one changed reload arms exactly one new timer per rule.
	defer startRun(rt)()
	waitFor(t, "timers armed", func() bool { return fc.Waiters() == 2 })
	rt.Reload([]*testRule{{name: "only", body: "x", every: 2 * time.Second}})
	// The two cancelled goroutines' timers stay armed in the fake clock
	// (they fire into buffered channels nobody reads).
	waitFor(t, "restarted goroutine armed", func() bool { return fc.Waiters() == 3 })
	fc.Advance(2 * time.Second)
	waitFor(t, "the new set evaluating", func() bool { return c.count(c.evals, "only") == 1 })
	waitFor(t, "re-arm", func() bool { return fc.Waiters() == 1 })
	if n := c.count(c.evals, "keep"); n != 1 {
		t.Fatalf("removed rule evaluated %d times, want only its EvalNow", n)
	}
}

// TestConcurrentEvalsNeverShareWindow: EvalNow racing Run's goroutine
// on one rule each get their own buffer (the race detector watches the
// writes; the counter watches ownership).
func TestConcurrentEvalsNeverShareWindow(t *testing.T) {
	fc := monitor.NewFakeClock()
	c := newCounter()
	c.inEval = func(*testRule) { time.Sleep(50 * time.Microsecond) }
	rt := New(c.config(monitor.NewStore(4), fc), []*testRule{{name: "r", body: "x", every: time.Second}})
	stop := startRun(rt)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rt.EvalNow()
			}
		}()
	}
	for i := 0; i < 50; i++ {
		fc.Advance(time.Second)
		time.Sleep(100 * time.Microsecond)
	}
	wg.Wait()
	stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.shared {
		t.Fatal("two concurrent evaluations were handed the same window buffer")
	}
	if c.evals["r"] < 800 {
		t.Fatalf("only %d evaluations ran", c.evals["r"])
	}
}

// TestEvalOfReloadedAwayRuleRecordsNothing: an evaluation that a
// reload overtook leaves no bookkeeping, reports no error and caches
// nothing — the rule starts clean if it is ever loaded again.
func TestEvalOfReloadedAwayRuleRecordsNothing(t *testing.T) {
	c := newCounter()
	gone := &testRule{name: "gone", body: "x"}
	rt := New(c.config(monitor.NewStore(4), monitor.NewFakeClock()), []*testRule{gone})
	c.setFail("gone", errors.New("boom"))
	entered, release := make(chan struct{}), make(chan struct{})
	c.inEval = func(*testRule) { close(entered); <-release }

	done := make(chan struct{})
	go func() { rt.Eval(gone); close(done) }()
	<-entered
	rt.Reload([]*testRule{{name: "other", body: "x"}})
	close(release)
	<-done

	if sts := rt.Statuses(); len(sts) != 1 || sts[0].Name != "other" || sts[0].Evals != 0 {
		t.Fatalf("statuses = %+v, want only the untouched new rule", sts)
	}
	if len(c.observed) != 0 {
		t.Fatalf("OnError calls = %v, want none for a rule that no longer exists", c.observed)
	}
	c.inEval = nil
	rt.Reload([]*testRule{gone})
	if st := rt.Statuses()[0]; st.Evals != 0 || st.LastError != "" || st.LastEval != "" {
		t.Fatalf("re-added rule's status = %+v, want a clean slate", st)
	}
	rt.EvalNow()
	if n := c.count(c.resolves, "gone"); n != 2 {
		t.Fatalf("%d cold resolutions, want 2: the overtaken one must not have been cached", n)
	}
}

// TestOnErrorOnlyOnChange is the regression test for the error log that
// never re-armed: the observer hears a rule's error when it changes to
// a non-empty value — again after a recovery, not on every repeat.
func TestOnErrorOnlyOnChange(t *testing.T) {
	c := newCounter()
	rt := New(c.config(monitor.NewStore(4), monitor.NewFakeClock()), []*testRule{{name: "r", body: "x"}})
	noSeries := errors.New("no series matches")
	steps := []struct {
		err  error
		want int // observer calls so far
	}{
		{noSeries, 1},
		{noSeries, 1}, // standing failure: not repeated
		{nil, 1},
		{noSeries, 2}, // same message after a recovery: reported again
		{errors.New("different"), 3},
		{errors.New("different"), 3},
	}
	for i, step := range steps {
		c.setFail("r", step.err)
		rt.EvalNow()
		if got := len(c.observed); got != step.want {
			t.Fatalf("step %d: %d observer calls %v, want %d", i, got, c.observed, step.want)
		}
		wantLast := ""
		if step.err != nil {
			wantLast = step.err.Error()
		}
		if got := rt.Statuses()[0].LastError; got != wantLast {
			t.Fatalf("step %d: last_error = %q, want %q", i, got, wantLast)
		}
	}
	if c.observed[0] != "r: no series matches" {
		t.Fatalf("observer saw %q, want the rule name and error", c.observed[0])
	}
}

// TestResolutionCache: a resolution is reused while the store's index
// generation holds still and no reload or Invalidate intervened; a
// resolution computed across a reload is used once and not cached.
func TestResolutionCache(t *testing.T) {
	store := monitor.NewStore(4)
	c := newCounter()
	reg := telemetry.New()
	cfg := c.config(store, monitor.NewFakeClock())
	cfg.Telemetry = reg
	r := &testRule{name: "r", body: "x"}
	rt := New(cfg, []*testRule{r})

	expect := func(step string, want int) {
		t.Helper()
		rt.EvalNow()
		if got := c.count(c.resolves, "r"); got != want {
			t.Fatalf("%s: %d cold resolutions, want %d", step, got, want)
		}
	}
	expect("first evaluation", 1)
	expect("unchanged store", 1)
	store.Append(monitor.Key{Metric: "new", Scope: monitor.ScopeNode}, monitor.Point{Time: 1})
	expect("new series moved the generation", 2)
	expect("settled again", 2)
	rt.Invalidate()
	expect("after Invalidate", 3)
	rt.Reload([]*testRule{r})
	expect("identical reload keeps the cache", 3)
	rt.Reload([]*testRule{r, {name: "s", body: "x"}})
	expect("changed reload drops every cache", 4)
	// A changed reload lands while r's cold resolution is in flight: the
	// result may predate the new set, so it serves that evaluation only.
	rt.Invalidate()
	c.inResolve = func() { rt.Reload([]*testRule{r}) }
	rt.Eval(r)
	c.inResolve = nil
	expect("resolution overtaken by a reload is not cached", 6)

	if hit, cold := reg.Counter("likwid_test_resolve_total", "result", "hit").Value(),
		reg.Counter("likwid_test_resolve_total", "result", "cold").Value(); hit != 3 || cold != 7 {
		t.Errorf("resolve_total hit=%d cold=%d, want 3 and 7 (6 of r, 1 of s)", hit, cold)
	}
	if evals := reg.Counter("likwid_test_evals_total").Value(); evals != 10 {
		t.Errorf("evals_total = %d, want 10", evals)
	}
}

func TestReducers(t *testing.T) {
	pts := []monitor.Point{{Time: 0, Value: 4}, {Time: 2, Value: 1}, {Time: 4, Value: 10}}
	tests := []struct {
		name string
		fn   Reducer
		pts  []monitor.Point
		want float64
		ok   bool
	}{
		{"mean", Mean, pts, 5, true},
		{"min", Min, pts, 1, true},
		{"max", Max, pts, 10, true},
		{"rate", Rate, pts, 1.5, true},
		{"presence", Presence, pts, 1, true},
		{"rate over one instant", Rate, pts[:1], 0, false},
		{"mean of one point", Mean, pts[:1], 4, true},
		{"empty mean", Mean, nil, 0, false},
		{"empty presence", Presence, nil, 0, false},
		{"unknown reducer", Reducer(99), pts, 0, false},
	}
	for _, tt := range tests {
		got, ok := tt.fn.Reduce(tt.pts)
		if got != tt.want || ok != tt.ok {
			t.Errorf("%s = (%v, %v), want (%v, %v)", tt.name, got, ok, tt.want, tt.ok)
		}
	}
}
