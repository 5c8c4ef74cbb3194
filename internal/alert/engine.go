package alert

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/rules"
	"likwid/internal/telemetry"
)

// Options wire an engine to its inputs and outputs.
type Options struct {
	// Store is the evaluated time-series store (required).  Firing and
	// resolved transitions are also recorded into it as "alert/<name>"
	// series (value 1 on firing, 0 on resolve), so alert history is
	// windowable and retained like any metric.
	Store *monitor.Store
	// Clock drives the per-rule evaluation cadence; defaults to the wall
	// clock (fake clocks make the state machine testable).
	Clock monitor.Clock
	// DefaultEvery is the evaluation cadence of rules without their own
	// "every" clause (default 10 s).
	DefaultEvery time.Duration
	// Notify receives firing/resolved events (optional): the notifier
	// fanout (NewFanout), or a delivery stage in front of it, e.g. a
	// Grouper coalescing per-instance events into one incident per rule
	// and state.
	Notify Publisher
	// StaleAfter resolves a firing instance whose series' simulated time
	// has stopped advancing for this much wall time — a decommissioned
	// fleet agent must not fire forever off its frozen last window.  The
	// parked instance stays suppressed (no re-fire off the same frozen
	// data) and restarts its lifecycle when the series moves again.
	// Zero disables staleness handling.
	StaleAfter time.Duration
	// OnError observes a rule's evaluation error when it changes, not on
	// every repeat of a standing one (optional; rules.Config.OnError).
	OnError func(rule string, err error)
	// Telemetry, when set, instruments evaluation: per-eval duration
	// histogram, eval counter, and firing/resolved transition counters.
	Telemetry *telemetry.Registry
}

// instKey deduplicates alert instances: one lifecycle per (rule, series).
type instKey struct {
	rule string
	key  monitor.Key
}

// instance is one rule×series lifecycle.
type instance struct {
	state       State
	since       float64   // simulated time the condition first held
	firingSince float64   // simulated time of the firing transition
	value       float64   // newest expression value
	updated     float64   // simulated time of the newest evaluation
	lastData    float64   // newest simulated time seen for the series
	lastAdvance time.Time // wall time lastData last moved forward
	stale       bool      // parked: resolved by staleness, data frozen
}

// Engine evaluates parsed rules against the store on a per-rule wall
// cadence and drives the pending → firing → resolved state machine.
// Notifications happen only on transitions (pending that recovers before
// its "for" duration is silently cancelled), so a firing alert is
// delivered exactly once per episode.  Cadence, hot reload, the cached
// selector resolution and the per-rule bookkeeping are the shared rule
// runtime's (internal/rules); the engine adds the instances.
type Engine struct {
	opts Options
	rt   *rules.Runtime[*Rule, []monitor.Key]

	reload <-chan struct{} // the runtime's pending-restart signal

	// mu guards insts.  It is taken before the runtime's own lock, never
	// while holding it.
	mu    sync.Mutex
	insts map[instKey]*instance

	tTransitions map[string]*telemetry.Counter // by event state; nil without Options.Telemetry
}

// NewEngine creates an engine over the given rules.
func NewEngine(opts Options, ruleSet []*Rule) (*Engine, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("alert: engine needs a store")
	}
	if opts.Clock == nil {
		opts.Clock = monitor.RealClock
	}
	e := &Engine{opts: opts, insts: map[instKey]*instance{}}
	e.rt = rules.New(rules.Config[*Rule, []monitor.Key]{
		Kind:         "alert",
		Store:        opts.Store,
		Clock:        opts.Clock,
		DefaultEvery: opts.DefaultEvery,
		OnError:      opts.OnError,
		Telemetry:    opts.Telemetry,
		Resolve:      e.resolve,
		Evaluate:     e.evaluate,
	}, ruleSet)
	e.reload = e.rt.Restart()
	if reg := opts.Telemetry; reg != nil {
		e.tTransitions = map[string]*telemetry.Counter{
			EventStateFiring:   reg.Counter("likwid_alert_transitions_total", "state", EventStateFiring),
			EventStateResolved: reg.Counter("likwid_alert_transitions_total", "state", EventStateResolved),
		}
	}
	return e, nil
}

// Rules returns a snapshot of the engine's rules in file order.
func (e *Engine) Rules() []*Rule { return e.rt.Rules() }

// Reload atomically swaps the rule set — the hot-reload path behind
// likwid-agent's SIGHUP handler and POST /rules/reload, with the shared
// runtime's semantics (rules.Runtime.Reload).  Rules whose rendered spec
// is unchanged keep their instances — a hot reload does not re-fire
// active alerts; removed or edited rules drop theirs (an evaluation
// already in flight for an edited rule may still land one instance under
// its old spec; the next evaluation converges it).
func (e *Engine) Reload(ruleSet []*Rule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	unchanged := e.rt.Reload(ruleSet)
	for id := range e.insts {
		if !unchanged[id.rule] {
			delete(e.insts, id)
		}
	}
}

// Run evaluates every rule on its cadence until the context is
// cancelled, then returns once all rule goroutines have stopped.  The
// fanout is not closed: the caller owns its lifecycle.
func (e *Engine) Run(ctx context.Context) { e.rt.Run(ctx) }

// EvalNow evaluates every rule once, synchronously — the one-shot entry
// for tests and callers that drive their own cadence.
func (e *Engine) EvalNow() { e.rt.EvalNow() }

// resolve matches the rule's selector through the store's index — the
// runtime's cold path; the result is cached per index generation.
func (e *Engine) resolve(r *Rule) []monitor.Key {
	keys := e.opts.Store.Select(monitor.Selector{
		Source: r.Source,
		Metric: r.Metric,
		Labels: r.Matchers,
		Scope:  r.Scope,
		ID:     r.ID,
		AnyID:  r.ID == AllIDs,
	})
	// Drop alert history series in place: a wildcard rule must not
	// alert on its own output.
	kept := keys[:0]
	for _, k := range keys {
		if !strings.HasPrefix(k.Metric, "alert/") {
			kept = append(kept, k)
		}
	}
	return kept
}

// evaluate runs one evaluation of one rule over its matched keys,
// windowing into (and returning) the rule's reusable point buffer.
func (e *Engine) evaluate(r *Rule, keys []monitor.Key, window []monitor.Point) ([]monitor.Point, error) {
	switch {
	case len(keys) == 0:
		return window, fmt.Errorf("no series matches %s(%s, %s, ...)", r.Fn, r.selector(), r.Scope)
	case r.Fn == FnImbalance:
		return e.evalImbalance(r, keys, window), nil
	}
	for _, k := range keys {
		window = e.evalSeries(r, k, window)
	}
	return window, nil
}

// evalSeries evaluates avg/min/max/rate over one matched series, windowing
// into (and returning) the rule's reusable point buffer.
func (e *Engine) evalSeries(r *Rule, k monitor.Key, window []monitor.Point) []monitor.Point {
	value, simNow, ok, window := fnReducers[r.Fn].Newest(e.opts.Store, k, r.Lookback, window)
	if ok {
		e.advance(r, k, k.Metric, value, simNow)
	}
	return window
}

// evalImbalance evaluates the cross-series spread: (max - min) / |mean|
// of the matched series' window averages.  One instance per rule, keyed
// by the selector.  Returns the reused window buffer.
func (e *Engine) evalImbalance(r *Rule, keys []monitor.Key, window []monitor.Point) []monitor.Point {
	var avgs []float64
	simNow := math.Inf(-1)
	for _, k := range keys {
		avg, at, ok, buf := rules.Mean.Newest(e.opts.Store, k, r.Lookback, window)
		window = buf
		if !ok {
			continue
		}
		avgs = append(avgs, avg)
		simNow = math.Max(simNow, at)
	}
	if len(avgs) == 0 {
		return window
	}
	minV, maxV, sum := avgs[0], avgs[0], 0.0
	for _, v := range avgs {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
		sum += v
	}
	mean := sum / float64(len(avgs))
	// The spread is normalized by |mean|, falling back to the magnitude
	// midpoint when signed members cancel to a zero mean — the value must
	// stay finite: events and /alerts are JSON, which cannot carry Inf.
	var value float64
	if maxV != minV {
		den := math.Abs(mean)
		if den == 0 {
			den = (math.Abs(maxV) + math.Abs(minV)) / 2
		}
		value = (maxV - minV) / den
	}
	e.advance(r, monitor.Key{Metric: r.Metric, Scope: r.Scope, ID: 0}, r.Metric, value, simNow)
	return window
}

// advance moves one instance through the state machine given the newest
// expression value at simulated time simNow.
func (e *Engine) advance(r *Rule, k monitor.Key, metric string, value, simNow float64) {
	cond := r.Cmp.holds(value, r.Threshold)
	id := instKey{rule: r.Name, key: k}
	now := e.opts.Clock.Now()

	e.mu.Lock()
	inst := e.insts[id]
	var fire, resolve bool
	var firingSince float64
	startPending := func() {
		inst.state = StatePending
		inst.since = simNow
		inst.lastData = simNow
		inst.lastAdvance = now
		if simNow-inst.since >= r.For {
			inst.state = StateFiring
			inst.firingSince = simNow
			fire = true
		}
	}
	switch {
	case cond && inst == nil:
		if !e.rt.Live(r.Name) {
			// The rule was reloaded away while this evaluation was running
			// (the reload dropped its instances, so only this case can see
			// it): publishing its transition or re-inserting an instance
			// would resurrect a rule the operator just deleted.
			e.mu.Unlock()
			return
		}
		inst = &instance{value: value, updated: simNow}
		e.insts[id] = inst
		startPending()
	case cond && inst.stale:
		// Parked by staleness: stay suppressed on frozen data; restart
		// the lifecycle from pending once the series moves again.
		if simNow > inst.lastData {
			inst.stale = false
			inst.value = value
			inst.updated = simNow
			startPending()
		}
	case cond:
		inst.value = value
		inst.updated = simNow
		switch {
		case simNow > inst.lastData:
			inst.lastData = simNow
			inst.lastAdvance = now
		case e.opts.StaleAfter > 0 && now.Sub(inst.lastAdvance) >= e.opts.StaleAfter:
			// The series' simulated time froze: resolve a firing alert
			// instead of firing forever off the last window, and park the
			// instance so it cannot re-fire until data resumes.
			resolve = inst.state == StateFiring
			firingSince = inst.firingSince
			inst.stale = true
		}
		if !inst.stale && inst.state == StatePending && simNow-inst.since >= r.For {
			inst.state = StateFiring
			inst.firingSince = simNow
			fire = true
		}
	case inst != nil:
		// Condition recovered: a firing alert resolves (notified); a
		// pending one is cancelled silently — that is the dedup guarantee
		// against flapping below the "for" horizon.  A stale instance
		// already resolved when it was parked.
		resolve = inst.state == StateFiring && !inst.stale
		firingSince = inst.firingSince
		delete(e.insts, id)
	}
	e.mu.Unlock()

	if fire {
		e.transition(r, k, metric, EventStateFiring, value, simNow, 0)
	}
	if resolve {
		e.transition(r, k, metric, EventStateResolved, value, simNow, firingSince)
	}
}

// transition publishes one firing/resolved event and records it into the
// store as the rule's history series.
func (e *Engine) transition(r *Rule, k monitor.Key, metric, state string, value, simNow, since float64) {
	ev := Event{
		Rule:      r.Name,
		State:     state,
		Source:    k.Source,
		Metric:    metric,
		Scope:     k.Scope.String(),
		ID:        k.ID,
		Labels:    k.Labels.Map(),
		Value:     value,
		Threshold: r.Threshold,
		Time:      simNow,
		Since:     since,
		Spec:      r.String(),
	}
	if c := e.tTransitions[state]; c != nil {
		c.Inc()
	}
	if e.opts.Notify != nil {
		e.opts.Notify.Publish(ev)
	}
	// History series: one per rule, carrying the matched series' source
	// and label set as their own Key dimensions (a receiver's fleet rule
	// keeps one history per agent and per label set) and split further
	// by matched metric when a wildcard selector can hit several metrics
	// of the same scope/id.
	name := "alert/" + r.Name
	if r.Fn != FnImbalance && r.Metric != metric {
		name += "/" + metric
	}
	v := 0.0
	if state == EventStateFiring {
		v = 1
	}
	histKey := monitor.Key{Source: k.Source, Metric: name, Scope: k.Scope, ID: k.ID, Labels: k.Labels}
	// Transition series are sparse 0/1 steps: compact them by last value
	// so a downsampled bucket reads as the state at its end, never a
	// 0.5 average of a fire/resolve pair.
	e.opts.Store.SetCompaction(histKey, monitor.CompactLast)
	e.opts.Store.Append(histKey, monitor.Point{Time: simNow, Value: v})
}

// InstanceStatus is one active alert instance in API shape.
type InstanceStatus struct {
	Rule        string            `json:"rule"`
	State       string            `json:"state"`
	Source      string            `json:"source,omitempty"`
	Metric      string            `json:"metric"`
	Scope       string            `json:"scope"`
	ID          int               `json:"id"`
	Labels      map[string]string `json:"labels,omitempty"`
	Value       float64           `json:"value"`
	Threshold   float64           `json:"threshold"`
	Since       float64           `json:"since"`
	FiringSince float64           `json:"firing_since,omitempty"`
	Updated     float64           `json:"updated"`
	Spec        string            `json:"spec"`
}

// Alerts snapshots the active (pending or firing) instances, sorted by
// rule, source, metric, scope, id, labels.
func (e *Engine) Alerts() []InstanceStatus {
	type row struct {
		st     InstanceStatus
		labels string // canonical label encoding, the final sort key
	}
	e.mu.Lock()
	byName := map[string]*Rule{}
	for _, r := range e.rt.Rules() {
		byName[r.Name] = r
	}
	rows := make([]row, 0, len(e.insts))
	for id, inst := range e.insts {
		if inst.stale {
			continue // parked: resolved, waiting for the series to move
		}
		r := byName[id.rule]
		if r == nil {
			continue // reloaded away between eval and snapshot
		}
		rows = append(rows, row{labels: id.key.Labels.String(), st: InstanceStatus{
			Rule:        id.rule,
			State:       inst.state.String(),
			Source:      id.key.Source,
			Metric:      id.key.Metric,
			Scope:       id.key.Scope.String(),
			ID:          id.key.ID,
			Labels:      id.key.Labels.Map(),
			Value:       inst.value,
			Threshold:   r.Threshold,
			Since:       inst.since,
			FiringSince: inst.firingSince,
			Updated:     inst.updated,
			Spec:        r.String(),
		}})
	}
	e.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i].st, rows[j].st
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		if a.Scope != b.Scope {
			return a.Scope < b.Scope
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return rows[i].labels < rows[j].labels
	})
	out := make([]InstanceStatus, len(rows))
	for i, r := range rows {
		out[i] = r.st
	}
	return out
}

// RuleStatus is one rule's bookkeeping in API shape: the runtime's
// common fields plus the rule's active instance counts.
type RuleStatus struct {
	rules.Status
	Pending int `json:"pending"`
	Firing  int `json:"firing"`
}

// RuleStatuses snapshots per-rule bookkeeping in file order.  The
// instance map is walked once, whatever the number of rules: a fleet
// receiver holds thousands of instances, and evaluation waits on this
// lock for every matched series.
func (e *Engine) RuleStatuses() []RuleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	sts := e.rt.Statuses()
	out := make([]RuleStatus, len(sts))
	byName := make(map[string]*RuleStatus, len(sts))
	for i, st := range sts {
		out[i].Status = st
		byName[st.Name] = &out[i]
	}
	for id, inst := range e.insts {
		rs := byName[id.rule]
		if rs == nil || inst.stale {
			continue
		}
		switch inst.state {
		case StatePending:
			rs.Pending++
		case StateFiring:
			rs.Firing++
		}
	}
	return out
}
