// Package rules is the runtime shared by the suite's rule engines.  The
// alert engine (internal/alert) and the recorded-rule engine
// (internal/derive) evaluate different grammars to different ends, but
// everything around the evaluation is one mechanism and lives here once:
// the rule list and its per-rule bookkeeping, the per-rule wall cadence
// loop, hot reload, the selector-resolution cache tagged with the
// store's index generation, the reusable window buffer, the evaluation
// telemetry, the error observer and the window reducers.  An engine
// supplies what differs — how a rule resolves against the store and
// what an evaluation does with the resolution — and the runtime never
// asks which engine it serves.
package rules

import (
	"context"
	"fmt"
	"sync"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// Rule is what the runtime needs to know of an engine's rule type.
type Rule interface {
	// String renders the rule in spec syntax; Reload treats two rules of
	// one name with equal renderings as the same rule.
	fmt.Stringer
	// RuleName identifies the rule: the key of its bookkeeping.
	RuleName() string
	// Cadence is the rule's own evaluation period in wall time; 0 uses
	// the runtime default.
	Cadence() time.Duration
}

// Config wires a runtime to the store it reads and the engine it
// serves.  Res is the engine's resolution type: whatever it wants cached
// per rule between changes of the store's series set.
type Config[R Rule, Res any] struct {
	// Kind names the engine in telemetry: likwid_<Kind>_evals_total,
	// _eval_seconds, _resolve_total{result=hit|cold} and _rules.
	Kind string
	// Store supplies the index generation resolutions are tagged with.
	Store *monitor.Store
	// Clock drives the cadence; defaults to the wall clock.
	Clock monitor.Clock
	// DefaultEvery is the cadence of rules without their own (default
	// 10 s).
	DefaultEvery time.Duration
	// OnError observes a rule's evaluation error when it changes: the
	// first failure, a different failure, or the same failure again after
	// a successful evaluation — not every repeat of a standing one.
	OnError func(rule string, err error)
	// Telemetry, when set, receives the instruments listed under Kind.
	Telemetry *telemetry.Registry
	// Resolve matches a rule against the store — the cold path, run when
	// the rule has no resolution cached at the current index generation.
	// Its result is shared by later evaluations and must not be mutated.
	Resolve func(r R) Res
	// Evaluate runs one evaluation over a resolution.  window is the
	// rule's reusable point buffer (nil at first); Evaluate returns the
	// buffer to keep for the next evaluation.
	Evaluate func(r R, res Res, window []monitor.Point) ([]monitor.Point, error)
}

// ruleState is one rule's bookkeeping, kept across reloads by name.
type ruleState[Res any] struct {
	evals    uint64
	lastEval time.Time // wall time of the newest evaluation
	lastErr  string

	// The cached resolution, valid while the store's index generation is
	// still resGen; any non-identical reload drops it.
	res      Res
	resGen   uint64
	resValid bool

	// window is the reusable point buffer.  An evaluation takes it
	// (leaving nil) and returns it when done, so concurrent EvalNow and
	// Run evaluations never share a buffer.
	window []monitor.Point
}

// Runtime holds a rule set and evaluates it: on each rule's cadence
// under Run, or once through EvalNow.
type Runtime[R Rule, Res any] struct {
	cfg Config[R, Res]

	mu    sync.Mutex
	rules []R
	state map[string]*ruleState[Res]
	epoch uint64 // counts non-identical reloads

	restart chan struct{} // tells Run to restart its rule goroutines

	// Instruments, nil without Config.Telemetry.
	tEvals   *telemetry.Counter
	tEvalSec *telemetry.Histogram
	tResHit  *telemetry.Counter
	tResCold *telemetry.Counter
}

// New creates a runtime over the given rules.
func New[R Rule, Res any](cfg Config[R, Res], rules []R) *Runtime[R, Res] {
	if cfg.Clock == nil {
		cfg.Clock = monitor.RealClock
	}
	if cfg.DefaultEvery <= 0 {
		cfg.DefaultEvery = 10 * time.Second
	}
	rt := &Runtime[R, Res]{
		cfg:     cfg,
		rules:   rules,
		state:   make(map[string]*ruleState[Res], len(rules)),
		restart: make(chan struct{}, 1),
	}
	for _, r := range rules {
		rt.state[r.RuleName()] = &ruleState[Res]{}
	}
	if reg := cfg.Telemetry; reg != nil {
		prefix := "likwid_" + cfg.Kind
		rt.tEvals = reg.Counter(prefix + "_evals_total")
		rt.tEvalSec = reg.Histogram(prefix+"_eval_seconds", telemetry.DurationBuckets)
		rt.tResHit = reg.Counter(prefix+"_resolve_total", "result", "hit")
		rt.tResCold = reg.Counter(prefix+"_resolve_total", "result", "cold")
		reg.GaugeFunc(prefix+"_rules", func() float64 { return float64(len(rt.Rules())) })
	}
	return rt
}

// Rules returns a snapshot of the rules in file order.
func (rt *Runtime[R, Res]) Rules() []R {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]R(nil), rt.rules...)
}

// Live reports whether a rule of that name is loaded.
func (rt *Runtime[R, Res]) Live(name string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.state[name] != nil
}

// Restart is the signal Run restarts its rule goroutines on: it holds
// one token after a reload that changed the set.
func (rt *Runtime[R, Res]) Restart() <-chan struct{} { return rt.restart }

// Reload atomically swaps the rule set and reports, by name, which of
// the new rules render the same spec as before.  Validation is the
// caller's job: a file that fails to parse is never handed to Reload, so
// the old set stays live.  A rule keeps its bookkeeping across the swap
// while its name survives.  If the whole set renders identical, in the
// same order, nothing else happens — the cadence timers keep running, so
// a config-management loop re-posting the same file every few seconds
// cannot starve rules of their cadence.  Otherwise every cached
// resolution is dropped (an edit to one rule can change what another
// matches) and a running Run restarts its goroutines on the new set.
func (rt *Runtime[R, Res]) Reload(rules []R) (unchanged map[string]bool) {
	rt.mu.Lock()
	oldSpec := make(map[string]string, len(rt.rules))
	for _, r := range rt.rules {
		oldSpec[r.RuleName()] = r.String()
	}
	newState := make(map[string]*ruleState[Res], len(rules))
	unchanged = make(map[string]bool, len(rules))
	identical := len(rules) == len(rt.rules)
	for i, r := range rules {
		name := r.RuleName()
		unchanged[name] = oldSpec[name] == r.String()
		st := rt.state[name]
		if st == nil {
			st = &ruleState[Res]{}
		}
		newState[name] = st
		identical = identical && rt.rules[i].RuleName() == name && unchanged[name]
	}
	rt.rules = rules
	rt.state = newState
	if !identical {
		rt.epoch++
		rt.invalidate()
	}
	rt.mu.Unlock()
	if identical {
		return unchanged
	}
	select {
	case rt.restart <- struct{}{}:
	default: // a restart is already pending
	}
	return unchanged
}

// Invalidate drops every cached resolution, so each rule's next
// evaluation resolves cold.
func (rt *Runtime[R, Res]) Invalidate() {
	rt.mu.Lock()
	rt.invalidate()
	rt.mu.Unlock()
}

func (rt *Runtime[R, Res]) invalidate() {
	var none Res
	for _, st := range rt.state {
		st.res, st.resValid = none, false
	}
}

// Run evaluates every rule on its cadence until the context is
// cancelled, then returns once all rule goroutines have stopped.  A
// Reload restarts the goroutines on the new rule set without dropping
// out of Run.
func (rt *Runtime[R, Res]) Run(ctx context.Context) {
	for {
		rctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		for _, r := range rt.Rules() {
			wg.Add(1)
			go func(r R) {
				defer wg.Done()
				every := rt.every(r)
				for {
					select {
					case <-rctx.Done():
						return
					case <-rt.cfg.Clock.After(every):
					}
					rt.Eval(r)
				}
			}(r)
		}
		select {
		case <-ctx.Done():
			cancel()
			wg.Wait()
			return
		case <-rt.restart:
			cancel()
			wg.Wait()
		}
	}
}

// every is a rule's effective cadence.
func (rt *Runtime[R, Res]) every(r R) time.Duration {
	if every := r.Cadence(); every > 0 {
		return every
	}
	return rt.cfg.DefaultEvery
}

// EvalNow evaluates every rule once, synchronously — the one-shot entry
// for tests and callers that drive their own cadence.
func (rt *Runtime[R, Res]) EvalNow() {
	for _, r := range rt.Rules() {
		rt.Eval(r)
	}
}

// Eval runs one evaluation of one rule: resolve (cached), evaluate,
// record.
func (rt *Runtime[R, Res]) Eval(r R) {
	if rt.tEvals != nil {
		rt.tEvals.Inc()
		start := time.Now()
		defer func() { rt.tEvalSec.Observe(time.Since(start).Seconds()) }()
	}
	name := r.RuleName()
	res, window := rt.resolve(r, name)
	window, evalErr := rt.cfg.Evaluate(r, res, window)

	rt.mu.Lock()
	st := rt.state[name]
	if st == nil {
		// The rule was reloaded away while this evaluation ran; its
		// bookkeeping is gone and nothing is left to record.
		rt.mu.Unlock()
		return
	}
	st.evals++
	st.lastEval = rt.cfg.Clock.Now()
	prevErr := st.lastErr
	st.lastErr = ""
	if evalErr != nil {
		st.lastErr = evalErr.Error()
	}
	changed := st.lastErr != "" && st.lastErr != prevErr
	if st.window == nil {
		st.window = window
	}
	rt.mu.Unlock()
	if changed && rt.cfg.OnError != nil {
		rt.cfg.OnError(name, evalErr)
	}
}

// resolve returns the rule's resolution — from the cache while the
// store's index generation holds still (new series are rare after
// warm-up, so steady-state evaluation does no matching work), through
// Config.Resolve when it moved — and hands out the rule's window buffer.
//
// The generation is read BEFORE resolving: a series created mid-resolve
// may be missed, but the store bumps the generation before such a miss
// is possible, so the cache records a stale generation and the next
// evaluation re-resolves.  A resolution that a reload overtook is
// likewise used once and not cached.
func (rt *Runtime[R, Res]) resolve(r R, name string) (Res, []monitor.Point) {
	gen := rt.cfg.Store.IndexGen()
	rt.mu.Lock()
	epoch := rt.epoch
	st := rt.state[name]
	var window []monitor.Point
	if st != nil {
		window, st.window = st.window, nil // this evaluation owns the buffer now
		if st.resValid && st.resGen == gen {
			res := st.res
			rt.mu.Unlock()
			if rt.tResHit != nil {
				rt.tResHit.Inc()
			}
			return res, window
		}
	}
	rt.mu.Unlock()
	res := rt.cfg.Resolve(r)
	if rt.tResCold != nil {
		rt.tResCold.Inc()
	}
	rt.mu.Lock()
	if st := rt.state[name]; st != nil && rt.epoch == epoch {
		st.res, st.resGen, st.resValid = res, gen, true
	}
	rt.mu.Unlock()
	return res, window
}

// Status is the bookkeeping every rule has, in API shape; engines embed
// it in their own status rows.
type Status struct {
	Name      string `json:"name"`
	Spec      string `json:"spec"`
	Every     string `json:"every"`
	Evals     uint64 `json:"evals"`
	LastEval  string `json:"last_eval,omitempty"` // RFC 3339 wall time
	LastError string `json:"last_error,omitempty"`
}

// Statuses snapshots per-rule bookkeeping in file order.
func (rt *Runtime[R, Res]) Statuses() []Status {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make([]Status, 0, len(rt.rules))
	for _, r := range rt.rules {
		st := rt.state[r.RuleName()]
		s := Status{
			Name:      r.RuleName(),
			Spec:      r.String(),
			Every:     rt.every(r).String(),
			Evals:     st.evals,
			LastError: st.lastErr,
		}
		if !st.lastEval.IsZero() {
			s.LastEval = st.lastEval.Format(time.RFC3339)
		}
		out = append(out, s)
	}
	return out
}
