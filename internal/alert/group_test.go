package alert

import (
	"strings"
	"sync"
	"testing"
	"time"

	"likwid/internal/monitor"
)

// capturePublisher records published events.
type capturePublisher struct {
	mu     sync.Mutex
	events []Event
}

func (c *capturePublisher) Publish(ev Event) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
	return true
}

func (c *capturePublisher) snapshot() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// waitFor polls until cond holds or the deadline passes.
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

func TestGrouperCoalescesSameRuleAndState(t *testing.T) {
	next := &capturePublisher{}
	clock := monitor.NewFakeClock()
	g := NewGrouper(next, 30*time.Second, clock)

	for _, source := range []string{"node001", "node002", "node003"} {
		if !g.Publish(Event{Rule: "mem_bw_low", State: EventStateFiring, Source: source,
			Metric: "bw", Value: 1, Threshold: 2, Time: 60}) {
			t.Fatal("publish into an open window must be accepted")
		}
	}
	if got := next.snapshot(); len(got) != 0 {
		t.Fatalf("events before the window closed: %+v", got)
	}
	if g.Pending() != 1 {
		t.Fatalf("pending windows = %d, want 1", g.Pending())
	}

	clock.Advance(30 * time.Second)
	waitFor(t, "grouped delivery", func() bool { return len(next.snapshot()) == 1 })
	ev := next.snapshot()[0]
	if len(ev.Instances) != 3 {
		t.Fatalf("instances = %d, want 3", len(ev.Instances))
	}
	if ev.Rule != "mem_bw_low" || ev.State != EventStateFiring || ev.Source != "node001" {
		t.Fatalf("grouped event = %+v", ev)
	}
	if ev.Instances[2].Source != "node003" {
		t.Fatalf("instance order lost: %+v", ev.Instances)
	}
}

func TestGrouperSeparatesRulesAndStates(t *testing.T) {
	next := &capturePublisher{}
	clock := monitor.NewFakeClock()
	g := NewGrouper(next, 10*time.Second, clock)

	g.Publish(Event{Rule: "a", State: EventStateFiring, Time: 1})
	g.Publish(Event{Rule: "a", State: EventStateResolved, Time: 2})
	g.Publish(Event{Rule: "b", State: EventStateFiring, Time: 3})
	if g.Pending() != 3 {
		t.Fatalf("pending windows = %d, want 3 (rule+state keyed)", g.Pending())
	}
	clock.Advance(10 * time.Second)
	waitFor(t, "all windows", func() bool { return len(next.snapshot()) == 3 })
	// Lone events pass through ungrouped.
	for _, ev := range next.snapshot() {
		if len(ev.Instances) != 0 {
			t.Fatalf("lone event carries instances: %+v", ev)
		}
	}
}

func TestGrouperGroupedEventTimeIsNewest(t *testing.T) {
	next := &capturePublisher{}
	clock := monitor.NewFakeClock()
	g := NewGrouper(next, 10*time.Second, clock)
	g.Publish(Event{Rule: "a", State: EventStateFiring, Time: 60})
	g.Publish(Event{Rule: "a", State: EventStateFiring, Time: 75})
	g.Publish(Event{Rule: "a", State: EventStateFiring, Time: 70})
	clock.Advance(10 * time.Second)
	waitFor(t, "delivery", func() bool { return len(next.snapshot()) == 1 })
	if ev := next.snapshot()[0]; ev.Time != 75 {
		t.Fatalf("grouped time = %v, want the newest member's 75", ev.Time)
	}
}

func TestGrouperZeroWaitPassesThrough(t *testing.T) {
	next := &capturePublisher{}
	g := NewGrouper(next, 0, monitor.NewFakeClock())
	g.Publish(Event{Rule: "a", State: EventStateFiring})
	if got := next.snapshot(); len(got) != 1 || len(got[0].Instances) != 0 {
		t.Fatalf("zero wait must pass straight through, got %+v", got)
	}
}

func TestGrouperCloseFlushesSynchronously(t *testing.T) {
	next := &capturePublisher{}
	g := NewGrouper(next, time.Hour, monitor.NewFakeClock())
	g.Publish(Event{Rule: "a", State: EventStateFiring, Source: "n1"})
	g.Publish(Event{Rule: "a", State: EventStateFiring, Source: "n2"})
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	got := next.snapshot()
	if len(got) != 1 || len(got[0].Instances) != 2 {
		t.Fatalf("Close must flush the open window, got %+v", got)
	}
	// After Close events bypass grouping.
	g.Publish(Event{Rule: "a", State: EventStateFiring})
	if len(next.snapshot()) != 2 {
		t.Fatal("post-Close publish must pass through")
	}
}

func TestLogNotifierGroupedLine(t *testing.T) {
	var sb strings.Builder
	n := NewLogNotifier(&sb)
	ev := Event{Rule: "mem_bw_low", State: EventStateFiring, Metric: "bw",
		Scope: "socket", Value: 1, Threshold: 2, Time: 60,
		Instances: []Event{{}, {}, {}}}
	if err := n.Write(ev); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), " instances=3") {
		t.Fatalf("log line %q lacks instances=3", sb.String())
	}
}

func TestEngineNotifyTakesPrecedence(t *testing.T) {
	st := monitor.NewStore(64)
	k := monitor.Key{Metric: "bw", Scope: monitor.ScopeNode}
	st.Append(k, monitor.Point{Time: 0, Value: 1})
	st.Append(k, monitor.Point{Time: 30, Value: 1})

	next := &capturePublisher{}
	r, err := ParseRule("low: avg(bw, node, 30s) < 2.0 for 0s", 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Options{
		Store:  st,
		Clock:  monitor.NewFakeClock(),
		Notify: next,
	}, []*Rule{r})
	if err != nil {
		t.Fatal(err)
	}
	e.EvalNow()
	if got := next.snapshot(); len(got) != 1 || got[0].Rule != "low" {
		t.Fatalf("Notify publisher events = %+v, want one firing", got)
	}
}
