package alert

import (
	"sync"
	"time"

	"likwid/internal/monitor"
)

// Publisher accepts firing/resolved events; Publish reports whether the
// event was accepted.  The notifier fanout (NewFanout) implements it,
// and Grouper wraps any Publisher, so delivery stages compose: engine →
// grouper → fanout → notifiers.
type Publisher interface {
	Publish(ev Event) bool
}

// gkey coalesces events of one rule in one state: a fleet rule tripping
// on 40 nodes at once is one incident, not 40 — but its resolves are a
// separate story and never merge with its fires.
type gkey struct {
	rule  string
	state string
}

// pending is one open group window.
type pending struct {
	events []Event
	stop   chan struct{}
}

// Grouper coalesces events for the same (rule, state) arriving within a
// wait window into one grouped event.  The first event of a group opens
// the window; when it closes, a lone event passes through unchanged and
// N>1 events become a single Event carrying all members in Instances —
// one webhook POST per incident instead of one per node.
//
// A zero wait disables grouping (events pass straight through), so the
// wiring can be unconditional.
type Grouper struct {
	next  Publisher
	wait  time.Duration
	clock monitor.Clock

	mu     sync.Mutex
	groups map[gkey]*pending
	closed bool
}

// NewGrouper wraps next; events for the same rule and state arriving
// within wait of the group's first event are delivered as one grouped
// event.  A clock of nil uses the wall clock.
func NewGrouper(next Publisher, wait time.Duration, clock monitor.Clock) *Grouper {
	if clock == nil {
		clock = monitor.RealClock
	}
	return &Grouper{
		next:   next,
		wait:   wait,
		clock:  clock,
		groups: map[gkey]*pending{},
	}
}

// Publish enqueues the event into its group, opening a window if none
// is pending.  It reports true when the event was taken by a window;
// the eventual downstream acceptance is the flush's business (the
// engine cannot wait on it).
func (g *Grouper) Publish(ev Event) bool {
	if g.wait <= 0 {
		return g.next.Publish(ev)
	}
	k := gkey{rule: ev.Rule, state: ev.State}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return g.next.Publish(ev)
	}
	if p := g.groups[k]; p != nil {
		p.events = append(p.events, ev)
		g.mu.Unlock()
		return true
	}
	p := &pending{events: []Event{ev}, stop: make(chan struct{})}
	g.groups[k] = p
	// The timer registers before Publish returns, so a fake clock
	// advanced right after cannot race past an unarmed window.
	timer := g.clock.After(g.wait)
	g.mu.Unlock()
	go func() {
		select {
		case <-timer:
			g.flush(k, p)
		case <-p.stop:
			// Close is flushing every group synchronously; this window's
			// events are already on their way.
		}
	}()
	return true
}

// flush closes one group window and delivers its contents; the pointer
// check makes it a no-op when Close already swept the group away.
func (g *Grouper) flush(k gkey, p *pending) {
	g.mu.Lock()
	if g.groups[k] != p {
		g.mu.Unlock()
		return
	}
	delete(g.groups, k)
	g.mu.Unlock()
	g.deliver(p.events)
}

// deliver forwards a closed window: one event unchanged, several as a
// single grouped event.
func (g *Grouper) deliver(events []Event) {
	if len(events) == 0 {
		return
	}
	if len(events) == 1 {
		g.next.Publish(events[0])
		return
	}
	// The grouped event wears the first member's identity (rule, state,
	// spec and threshold are identical across members by construction)
	// and the newest member's time; every member rides in Instances.
	ev := events[0]
	for _, m := range events[1:] {
		if m.Time > ev.Time {
			ev.Time = m.Time
		}
	}
	ev.Instances = events
	g.next.Publish(ev)
}

// Pending reports the number of open group windows.
func (g *Grouper) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.groups)
}

// Close flushes every open window synchronously and stops their timer
// goroutines.  Events published after Close bypass grouping — the
// shutdown path must not open windows nobody will close.
func (g *Grouper) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	groups := g.groups
	g.groups = map[gkey]*pending{}
	g.mu.Unlock()
	for _, p := range groups {
		close(p.stop)
		g.deliver(p.events)
	}
	return nil
}
