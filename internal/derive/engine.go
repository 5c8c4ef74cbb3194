package derive

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
	"likwid/internal/spec"
	"likwid/internal/telemetry"
)

// Options wire an engine to its inputs and outputs.
type Options struct {
	// Store is both sides of the loop: rules evaluate against its
	// windows, and their outputs are appended back into it as
	// first-class series (required).
	Store *monitor.Store
	// Clock drives the per-rule evaluation cadence; defaults to the
	// wall clock (fake clocks make evaluation testable).
	Clock monitor.Clock
	// DefaultEvery is the evaluation cadence of rules without their own
	// "every" clause (default 10 s).
	DefaultEvery time.Duration
	// Dispatcher, when set, also receives every emitted sample as a
	// "derive/<rule>" batch, so the agent's sink fan-out (push wires,
	// /metrics, CSV) carries derived series exactly like
	// collected ones.  The store append does not depend on it.
	Dispatcher *monitor.Dispatcher
	// OnError observes a rule's evaluation error when it changes, not on
	// every repeat of a standing one (optional; rules.Config.OnError).
	OnError func(rule string, err error)
	// Telemetry, when set, instruments evaluation: per-eval duration
	// histogram, eval/emit counters, selector fan-out histogram, and a
	// loaded-rules gauge.
	Telemetry *telemetry.Registry
}

// ruleStats is what a rule's evaluations add to the runtime's common
// bookkeeping; like that, it survives reloads while the name does.
type ruleStats struct {
	emitted uint64
	series  int // selector fan-out of the newest evaluation
	groups  int // output groups of the newest evaluation
}

// resolution is one rule's selector fan-out at one index generation:
// everything evaluation needs that does not depend on the windows
// themselves (matched keys, grouped and ordered, with interned output
// labels).  Immutable once returned from resolve.
type resolution struct {
	matched int      // selector fan-out (series count)
	groups  []*group // emit order (sorted by group identity)
}

// group is one output series' cached membership: the by-dimension
// identity (source, interned output labels) and the member keys.
type group struct {
	source string
	labels monitor.Labels
	keys   []monitor.Key
}

// Engine evaluates recorded rules against the store on a per-rule wall
// cadence and appends their outputs back into it.  Cadence, hot reload,
// the cached selector resolution and the per-rule bookkeeping are the
// shared rule runtime's (internal/rules); the engine adds grouping,
// the cross-member combine and the emit.
type Engine struct {
	opts Options
	rt   *rules.Runtime[*Rule, *resolution]

	// mu guards stats: one entry per loaded rule, so its key set is also
	// the output-name set wildcard selectors exclude.  The map is replaced
	// wholesale on reload, never mutated — a resolution reads the one it
	// grabbed race-free.  mu is taken before the runtime's own lock, never
	// while holding it.
	mu    sync.Mutex
	stats map[string]*ruleStats

	tEmitted *telemetry.Counter // nil without Options.Telemetry
	tFanout  *telemetry.Histogram
}

// NewEngine creates an engine over the given rules.
func NewEngine(opts Options, ruleSet []*Rule) (*Engine, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("derive: engine needs a store")
	}
	e := &Engine{opts: opts}
	e.setRules(ruleSet)
	e.rt = rules.New(rules.Config[*Rule, *resolution]{
		Kind:         "derive",
		Store:        opts.Store,
		Clock:        opts.Clock,
		DefaultEvery: opts.DefaultEvery,
		OnError:      opts.OnError,
		Telemetry:    opts.Telemetry,
		Resolve:      e.resolve,
		Evaluate:     e.evaluate,
	}, ruleSet)
	if reg := opts.Telemetry; reg != nil {
		e.tEmitted = reg.Counter("likwid_derive_emitted_total")
		e.tFanout = reg.Histogram("likwid_derive_selector_series", telemetry.SizeBuckets)
	}
	return e, nil
}

// setRules replaces the stats map, carrying each surviving rule's
// entry over.  Callers hold mu (or are the constructor).
func (e *Engine) setRules(ruleSet []*Rule) {
	stats := make(map[string]*ruleStats, len(ruleSet))
	for _, r := range ruleSet {
		if stats[r.Name] = e.stats[r.Name]; stats[r.Name] == nil {
			stats[r.Name] = &ruleStats{}
		}
	}
	e.stats = stats
}

// Rules returns a snapshot of the engine's rules in file order.
func (e *Engine) Rules() []*Rule { return e.rt.Rules() }

// Reload atomically swaps the rule set — the hot-reload path behind
// likwid-agent's SIGHUP handler and POST /derive/reload, with the shared
// runtime's semantics (rules.Runtime.Reload).  A changed set re-resolves
// EVERY rule, not just the edited ones: wildcard selectors exclude the
// derived output-name set, which the reload just replaced.  Output
// series already in the store stay: they are first-class data with
// their own retention, not engine state.
func (e *Engine) Reload(ruleSet []*Rule) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.setRules(ruleSet)
	e.rt.Reload(ruleSet)
}

// Run evaluates every rule on its cadence until the context is
// cancelled, then returns once all rule goroutines have stopped.
func (e *Engine) Run(ctx context.Context) { e.rt.Run(ctx) }

// EvalNow evaluates every rule once, synchronously — the one-shot
// entry for tests and callers that drive their own cadence.
func (e *Engine) EvalNow() { e.rt.EvalNow() }

// resolve matches and groups the rule's inputs through the store's
// index — the runtime's cold path; the result is cached per index
// generation, so steady-state evaluation does no matching or grouping.
func (e *Engine) resolve(r *Rule) *resolution {
	e.mu.Lock()
	derived := e.stats
	e.mu.Unlock()

	keys := e.opts.Store.Select(monitor.Selector{
		Source:    r.Source,
		AnySource: r.Source == "", // an omitted source sweeps the fleet
		Metric:    r.Metric,
		Labels:    r.Matchers,
		Scope:     r.Scope,
		AnyID:     true,
	})
	// Select covers scope/source/labels/metric; the rule-level
	// exclusions remain: a rule never feeds on its own output, and a
	// wildcard selector skips alert histories and every loaded rule's
	// output so a sweep cannot feed on roll-ups.
	wild := strings.Contains(r.Metric, "*")
	res := &resolution{}
	// Group identity is the by-dimension value tuple; a series missing a
	// grouped label lands in the group without it, so partially-labelled
	// fleets still roll up.
	groups := map[string]*group{}
	labelMaps := map[string]map[string]string{}
	var order []string
	for _, k := range keys {
		if k.Metric == r.Name {
			continue
		}
		if wild && (strings.HasPrefix(k.Metric, "alert/") || derived[k.Metric] != nil) {
			continue
		}
		res.matched++
		var sb strings.Builder
		var source string
		var labels map[string]string
		for _, dim := range r.By {
			if dim == spec.BySource {
				source = k.Source
				sb.WriteString("s\x00" + source + "\x00")
				continue
			}
			if v, ok := k.Labels.Get(dim); ok {
				if labels == nil {
					labels = map[string]string{}
				}
				labels[dim] = v
				sb.WriteString("l\x00" + dim + "\x00" + v + "\x00")
			}
		}
		gk := sb.String()
		g := groups[gk]
		if g == nil {
			g = &group{source: source}
			groups[gk] = g
			labelMaps[gk] = labels
			order = append(order, gk)
		}
		g.keys = append(g.keys, k)
	}
	sort.Strings(order) // deterministic emit order for batches and tests
	for _, gk := range order {
		g := groups[gk]
		labels, err := monitor.MakeLabels(labelMaps[gk])
		if err != nil {
			// Unreachable: group labels come off interned series keys,
			// which were validated on the way in.  Fail the group, not the
			// process.
			if e.opts.OnError != nil {
				e.opts.OnError(r.Name, err)
			}
			continue
		}
		g.labels = labels
		res.groups = append(res.groups, g)
	}
	return res
}

// evaluate runs one evaluation of one rule over its resolution: reduce
// and emit.  Windows and appends go through the same store paths as
// every other reader and collector, so evaluation never touches the
// append hot path's locks.
func (e *Engine) evaluate(r *Rule, res *resolution, window []monitor.Point) ([]monitor.Point, error) {
	if e.tFanout != nil {
		e.tFanout.Observe(float64(res.matched))
	}
	var evalErr error
	var emitted []monitor.Sample
	if res.matched == 0 {
		evalErr = fmt.Errorf("no series matches %s(%s)", r.Fn, r.Metric)
	}
	for _, g := range res.groups {
		var s monitor.Sample
		var ok bool
		if s, ok, window = e.evalGroup(r, g, window); ok {
			emitted = append(emitted, s)
		}
	}
	if len(emitted) > 0 {
		if e.tEmitted != nil {
			e.tEmitted.Add(uint64(len(emitted)))
		}
		if e.opts.Dispatcher != nil {
			maxT := emitted[0].Time
			for _, s := range emitted[1:] {
				maxT = math.Max(maxT, s.Time)
			}
			e.opts.Dispatcher.Publish(monitor.Batch{
				Collector: "derive/" + r.Name,
				Time:      maxT,
				Samples:   emitted,
			})
		}
	}
	e.mu.Lock()
	if st := e.stats[r.Name]; st != nil { // nil: reloaded away mid-evaluation
		st.emitted += uint64(len(emitted))
		st.series = res.matched
		st.groups = len(res.groups)
	}
	e.mu.Unlock()
	return window, evalErr
}

// evalGroup reduces one group's member windows to a single output
// point and appends it to the store, windowing into (and returning)
// the rule's reusable point buffer.  ok is false when no member had
// data in the window or the point would duplicate the output's newest
// (no series advanced since the previous evaluation — the idempotence
// guard, derived from the store rather than engine memory so it
// survives reloads and restarts).
func (e *Engine) evalGroup(r *Rule, g *group, window []monitor.Point) (monitor.Sample, bool, []monitor.Point) {
	var (
		agg    float64
		count  int
		simNow = math.Inf(-1)
	)
	for _, k := range g.keys {
		v, at, ok, buf := fnReducers[r.Fn].Newest(e.opts.Store, k, r.Over, window)
		window = buf
		if !ok {
			continue
		}
		switch {
		case count == 0:
			agg = v
		case r.Fn == FnMin:
			agg = math.Min(agg, v)
		case r.Fn == FnMax:
			agg = math.Max(agg, v)
		default: // sum, avg, count, rate accumulate
			agg += v
		}
		count++
		simNow = math.Max(simNow, at)
	}
	if count == 0 {
		return monitor.Sample{}, false, window
	}
	switch r.Fn {
	case FnAvg:
		agg /= float64(count)
	case FnCount:
		agg = float64(count)
	}

	out := monitor.Key{Source: g.source, Metric: r.Name, Scope: monitor.ScopeNode, ID: 0, Labels: g.labels}
	if prev, ok := e.opts.Store.Latest(out); ok && prev.Time >= simNow {
		return monitor.Sample{}, false, window // inputs did not advance: emit nothing
	}
	e.opts.Store.Append(out, monitor.Point{Time: simNow, Value: agg})
	return monitor.Sample{
		Source: out.Source,
		Metric: out.Metric,
		Scope:  out.Scope,
		ID:     out.ID,
		Labels: out.Labels,
		Time:   simNow,
		Value:  agg,
	}, true, window
}

// RuleStatus is one rule's bookkeeping in API shape: the runtime's
// common fields plus what the rule emitted.
type RuleStatus struct {
	rules.Status
	Emitted uint64 `json:"emitted"`
	Series  int    `json:"series"` // selector fan-out of the newest evaluation
	Groups  int    `json:"groups"` // output groups of the newest evaluation
}

// RuleStatuses snapshots per-rule bookkeeping in file order.
func (e *Engine) RuleStatuses() []RuleStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	sts := e.rt.Statuses()
	out := make([]RuleStatus, len(sts))
	for i, st := range sts {
		stats := e.stats[st.Name]
		out[i] = RuleStatus{Status: st, Emitted: stats.emitted, Series: stats.series, Groups: stats.groups}
	}
	return out
}
