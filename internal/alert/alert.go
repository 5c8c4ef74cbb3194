// Package alert is the rule layer over the monitoring subsystem: it
// turns the store's windowed queries into operator-facing signals, the
// step the LIKWID Monitoring Stack (Röhl et al., arXiv:1708.01476) takes
// from collecting node metrics to acting on them.  User-defined rules
//
//	mem_bw_low: avg(memory_bandwidth_mbytes_s, socket, 30s) < 2000 for 60s
//
// are parsed into a small AST, evaluated on a per-rule cadence against
// monitor.Store windows by a stateful engine (pending → firing →
// resolved, deduplicated per series), and transitions fan out to
// pluggable notifiers (log, JSON lines, webhook) behind a bounded queue.
// Firing and resolved transitions are also recorded back into the store
// as "alert/<name>" series, so alert history is queryable and retained
// like any other metric.
package alert

import (
	"fmt"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/rules"
	"likwid/internal/spec"
)

// Fn is the window function of a rule expression.
type Fn int

const (
	// FnAvg is the mean of the points in the lookback window.
	FnAvg Fn = iota
	// FnMin is the smallest point in the lookback window.
	FnMin
	// FnMax is the largest point in the lookback window.
	FnMax
	// FnRate is the per-second slope across the lookback window:
	// (last - first) / (t_last - t_first).
	FnRate
	// FnImbalance is (max - min) / |mean| of the per-series window
	// averages across every series the selector matches — the
	// load-imbalance signal of the paper's multicore view, as one number.
	FnImbalance
)

var fnNames = [...]string{"avg", "min", "max", "rate", "imbalance"}

// fnReducers maps each function onto the runtime's window reducer;
// imbalance reduces every member to its window mean first.
var fnReducers = [...]rules.Reducer{rules.Mean, rules.Min, rules.Max, rules.Rate, rules.Mean}

// String returns the spec-language name of the function.
func (f Fn) String() string {
	if f < 0 || int(f) >= len(fnNames) {
		return fmt.Sprintf("fn(%d)", int(f))
	}
	return fnNames[f]
}

// Cmp is the threshold comparison of a rule.
type Cmp int

const (
	// CmpLT fires when the expression drops below the threshold.
	CmpLT Cmp = iota
	// CmpLE fires at or below the threshold.
	CmpLE
	// CmpGT fires above the threshold.
	CmpGT
	// CmpGE fires at or above the threshold.
	CmpGE
)

var cmpNames = [...]string{"<", "<=", ">", ">="}

// String returns the comparison operator.
func (c Cmp) String() string {
	if c < 0 || int(c) >= len(cmpNames) {
		return fmt.Sprintf("cmp(%d)", int(c))
	}
	return cmpNames[c]
}

// holds reports whether value cmp threshold is true.
func (c Cmp) holds(value, threshold float64) bool {
	switch c {
	case CmpLT:
		return value < threshold
	case CmpLE:
		return value <= threshold
	case CmpGT:
		return value > threshold
	case CmpGE:
		return value >= threshold
	}
	return false
}

// AllIDs is the Rule.ID sentinel selecting every id of the scope.
const AllIDs = spec.NoID

// LabelMatcher is one {name="value"} clause of a rule selector.  Value
// may use '*' wildcards; a series matches when it carries the label and
// the value matches.  It is monitor's selector pair, so rule matchers
// evaluate through monitor.MatchLabels — one implementation of the
// label-selector semantics for the DSL and /query alike.
type LabelMatcher = monitor.Label

// Rule is one parsed alerting rule.
//
// Lookback and For are simulated seconds — the store's time axis — so a
// rule's windows and hold times line up with the data regardless of how
// fast wall time runs.  Every is wall time: it is the evaluation cadence
// of the engine, not a property of the data.
type Rule struct {
	// Name identifies the rule; it becomes the "alert/<name>" history
	// series and the dedup key of its alert instances.
	Name string
	// Fn is the window function applied to the selected series.
	Fn Fn
	// Source selects series by the measuring agent — its own
	// wildcard-able dimension matched against Key.Source, never parsed
	// out of the metric name.  Empty selects only local (sourceless)
	// series; "*" follows a whole fleet on a receiver, "node*" a slice
	// of it.  In spec syntax it precedes the metric:
	// avg(*/dp_mflops_s, node, 30s).
	Source string
	// Metric selects series by name.  '*' wildcards match any run of
	// characters.  Non-wildcard selectors also match sanitized forms
	// ("memory_bandwidth_mbytes_s" finds "Memory bandwidth [MBytes/s]").
	Metric string
	// Matchers restrict the selector to series whose label set carries
	// every named label with a matching value ('*' wildcards allowed).
	// In spec syntax they suffix the metric: avg(bw{job="lbm"}, node,
	// 30s).  Matchers are kept sorted by name, so rendered specs are
	// canonical.  Empty matches every series, labelled or not.
	Matchers []LabelMatcher
	// Scope restricts the selector to one topology domain.
	Scope monitor.Scope
	// ID restricts the selector to one entity; AllIDs matches every id,
	// evaluating the rule once per matching series.
	ID int
	// Lookback is the window length in simulated seconds.
	Lookback float64
	// Cmp compares the window function's value against Threshold.
	Cmp Cmp
	// Threshold is the comparison constant.
	Threshold float64
	// For is how long (simulated seconds) the condition must hold before
	// the alert fires; 0 fires on the first true evaluation.
	For float64
	// Every overrides the engine's evaluation cadence for this rule
	// (wall time); 0 uses the engine default.
	Every time.Duration
	// Line is the 1-based line of the rule in its spec file.
	Line int
}

// String renders the rule back in spec syntax, the window in the
// parentheses.
func (r *Rule) String() string {
	e := spec.Expr{Fn: r.Fn.String(), Source: r.Source, Metric: r.Metric, Matchers: r.Matchers,
		Scope: r.Scope, ID: r.ID, Window: r.Lookback}
	s := fmt.Sprintf("%s: %s %s %g for %s", r.Name, e.Render(true), r.Cmp, r.Threshold, spec.FormatSeconds(r.For))
	if r.Every > 0 {
		s += fmt.Sprintf(" every %s", r.Every)
	}
	return s
}

// selector renders the rule's [SOURCE/]METRIC{matchers} selector so
// that the parser reads it back into the same (Source, Metric,
// Matchers) triple.
func (r *Rule) selector() string {
	return spec.RenderSelector(r.Source, r.Metric, r.Matchers)
}

// RuleName and Cadence expose the rule to the shared runtime
// (rules.Rule).
func (r *Rule) RuleName() string { return r.Name }

// Cadence is the rule's own "every" clause; 0 uses the engine default.
func (r *Rule) Cadence() time.Duration { return r.Every }

// State is one alert instance's position in the lifecycle.
type State int

const (
	// StatePending means the condition is true but has not yet held for
	// the rule's "for" duration.
	StatePending State = iota
	// StateFiring means the condition has held long enough; the firing
	// transition has been notified and recorded.
	StateFiring
)

var stateNames = [...]string{"pending", "firing"}

// String returns the lowercase state name.
func (s State) String() string {
	if s < 0 || int(s) >= len(stateNames) {
		return fmt.Sprintf("state(%d)", int(s))
	}
	return stateNames[s]
}

// Event is one firing or resolved transition, the unit delivered to
// notifiers and exposed on the webhook wire (as JSON).
type Event struct {
	// Rule is the rule name.
	Rule string `json:"rule"`
	// State is "firing" or "resolved".
	State string `json:"state"`
	// Source, Metric, Scope, ID and Labels identify the series instance
	// that transitioned (for imbalance rules, the selector itself).
	// Source is empty for local series; Labels is omitted for
	// unlabelled ones.
	Source string            `json:"source,omitempty"`
	Metric string            `json:"metric"`
	Scope  string            `json:"scope"`
	ID     int               `json:"id"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is the expression value at the transition.
	Value float64 `json:"value"`
	// Threshold echoes the rule threshold the value crossed.
	Threshold float64 `json:"threshold"`
	// Time is the simulated time of the transition.
	Time float64 `json:"time"`
	// Since is the simulated time the alert started firing (resolved
	// events only).
	Since float64 `json:"since,omitempty"`
	// Spec is the rule in spec syntax, for self-describing payloads.
	Spec string `json:"spec"`
	// Instances carries the member events of a grouped delivery (the
	// Grouper's coalescing window): N nodes tripping one rule within
	// group_wait arrive as one event with N instances.  Empty on direct
	// deliveries; members never nest further.
	Instances []Event `json:"instances,omitempty"`
}

// EventStateFiring and EventStateResolved are the Event.State values.
const (
	EventStateFiring   = "firing"
	EventStateResolved = "resolved"
)
