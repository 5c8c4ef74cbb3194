// Package derive is the recorded-rule engine of the monitoring
// subsystem: it computes fleet roll-ups *inside* the pipeline, the step
// the LIKWID Monitoring Stack (Röhl et al., arXiv:1708.01476) argues
// fleet-scale monitoring needs — job/cluster aggregates computed once,
// near the data, not re-derived by every reader.  User-defined rules
//
//	cluster_flops = sum(flops_dp{cluster="emmy"}) by (source) over 30s every 10s
//
// evaluate a windowed aggregation (sum, avg, min, max, count, rate)
// over every series a [SOURCE/]METRIC{label="value"} selector matches,
// grouped by the "by" dimensions, and append the result back into the
// store as a first-class series named after the rule.  A derived series
// is indistinguishable from a collected one: it downsamples through
// retention tiers, is WAL-durable, ships over the push wire, serves
// from /query and /metrics, and can be matched by an alert rule — the
// layers below need zero changes.
//
// The same rule file declares ingest routes ("route drop ...", "route
// rename ... -> NAME", "route relabel ... set k=\"v\""), the receiver's
// retag stage applied before samples are interned (monitor.Router).
//
// A recorded rule is a line of the rule grammar alert rules use too
// (internal/spec), with '=' after the name.
package derive

import (
	"fmt"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/rules"
	"likwid/internal/spec"
)

// Fn is the aggregation function of a derive rule.
type Fn int

const (
	// FnSum adds the matched series' window means — the fleet roll-up:
	// each member contributes its current (noise-averaged) level once.
	FnSum Fn = iota
	// FnAvg is the mean of the matched series' window means.
	FnAvg
	// FnMin is the smallest point any matched series saw in the window.
	FnMin
	// FnMax is the largest point any matched series saw in the window.
	FnMax
	// FnCount is the number of matched series with data in the window —
	// a liveness roll-up (how many agents are reporting).
	FnCount
	// FnRate adds the matched series' per-second window slopes.
	FnRate
)

var fnNames = [...]string{"sum", "avg", "min", "max", "count", "rate"}

// fnReducers maps each function onto the runtime's window reducer, one
// member series' contribution: the window mean for sum/avg, the extremum
// for min/max, presence for count, the per-second slope for rate.
var fnReducers = [...]rules.Reducer{rules.Mean, rules.Mean, rules.Min, rules.Max, rules.Presence, rules.Rate}

// String returns the spec-language name of the function.
func (f Fn) String() string {
	if f < 0 || int(f) >= len(fnNames) {
		return fmt.Sprintf("fn(%d)", int(f))
	}
	return fnNames[f]
}

// Rule is one parsed recorded rule.
//
// Over is simulated seconds — the store's time axis — so a rule's
// window lines up with the data regardless of how fast wall time runs.
// Every is wall time: the evaluation cadence of the engine, not a
// property of the data.
type Rule struct {
	// Name identifies the rule and becomes the metric name of its
	// output series.
	Name string
	// Fn is the aggregation applied across the matched series.
	Fn Fn
	// Source selects input series by measuring agent ('*' wildcards).
	// Empty matches EVERY source: a recorded rule is a fleet roll-up,
	// so unlike an alert selector it has no "local only" reading — on
	// an agent all series are local anyway, and on a receiver a rule
	// without a source selector sweeps the whole fleet.
	Source string
	// Metric selects input series by name: exact, '*' wildcards, or
	// sanitized-form equality.  Wildcard selectors never match alert
	// histories or other rules' outputs (an explicit name does, so
	// rules can chain).
	Metric string
	// Matchers restrict the selector to series whose label set carries
	// every named label with a matching value ('*' wildcards).
	Matchers []monitor.Label
	// Scope restricts the inputs to one topology domain (default node),
	// so a rule never double-counts a metric reported at several
	// scopes.
	Scope monitor.Scope
	// By are the grouping dimensions: spec.BySource and/or label names.  One
	// output series is emitted per distinct combination, carrying the
	// group's source and labels; empty By collapses everything into one
	// sourceless, unlabelled output.
	By []string
	// Over is the aggregation window in simulated seconds.
	Over float64
	// Every overrides the engine's evaluation cadence for this rule
	// (wall time); 0 uses the engine default.
	Every time.Duration
	// Line is the 1-based line of the rule in its spec file.
	Line int
}

// String renders the rule back in spec syntax (canonical: parsing the
// rendering yields an identical rendering), the window after "over".
func (r *Rule) String() string {
	e := spec.Expr{Fn: r.Fn.String(), Source: r.Source, Metric: r.Metric, Matchers: r.Matchers,
		Scope: r.Scope, ID: spec.NoID, Window: r.Over, By: r.By}
	s := fmt.Sprintf("%s = %s", r.Name, e.Render(false))
	if r.Every > 0 {
		s += fmt.Sprintf(" every %s", r.Every)
	}
	return s
}

// RuleName and Cadence expose the rule to the shared runtime
// (rules.Rule).
func (r *Rule) RuleName() string { return r.Name }

// Cadence is the rule's own "every" clause; 0 uses the engine default.
func (r *Rule) Cadence() time.Duration { return r.Every }
