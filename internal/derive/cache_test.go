package derive

import (
	"testing"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// TestResolutionCacheTracksNewSeries pins the generation contract: a
// series created after the cached resolution must be picked up on the
// next evaluation, because the store's index generation moved.
func TestResolutionCacheTracksNewSeries(t *testing.T) {
	st := fleetStore(t)
	r := mustRule(t, "total = sum(flops_dp) over 30s")
	e := newTestEngine(t, st, r)
	e.EvalNow() // caches the 3-series resolution
	out := monitor.Key{Metric: "total", Scope: monitor.ScopeNode}
	if got := latestValue(t, st, out); got != 145 {
		t.Fatalf("first eval total = %v, want 145", got)
	}
	// A new agent joins the fleet after the cache warmed.
	d := monitor.Key{Source: "nodeD", Metric: "flops_dp", Scope: monitor.ScopeNode}
	st.Append(d, monitor.Point{Time: 20, Value: 55})
	e.EvalNow()
	if got := latestValue(t, st, out); got != 200 {
		t.Fatalf("total after new series = %v, want 200 (15+30+100+55)", got)
	}
	if got := e.RuleStatuses()[0].Series; got != 4 {
		t.Fatalf("fan-out after new series = %d, want 4", got)
	}
}

// TestResolutionCacheServesUnchangedStore pins the steady state: with
// the store's key set unchanged, repeated evaluations are served from
// the cached resolution (observable through the hit counter).
func TestResolutionCacheServesUnchangedStore(t *testing.T) {
	st := fleetStore(t)
	reg := telemetry.New()
	e, err := NewEngine(Options{Store: st, Clock: monitor.NewFakeClock(), Telemetry: reg},
		[]*Rule{mustRule(t, "total = sum(flops_dp) over 30s")})
	if err != nil {
		t.Fatal(err)
	}
	e.EvalNow() // cold: resolves and emits (creating the output series)
	e.EvalNow() // cold again: the emit moved the generation
	for i := 0; i < 3; i++ {
		e.EvalNow() // steady state
	}
	if hits := reg.Counter("likwid_derive_resolve_total", "result", "hit").Value(); hits != 3 {
		t.Fatalf("cache hits after 3 steady-state evals = %d, want 3", hits)
	}
	gen := st.IndexGen()
	e.EvalNow()
	if got := st.IndexGen(); got != gen {
		t.Fatalf("steady-state eval moved the index generation %d -> %d", gen, got)
	}
}

// TestReloadInvalidatesResolutions pins the reload hazard: replacing
// the rule set changes the derived output-name exclusion that wildcard
// selectors apply, so even a spec-unchanged rule must re-resolve.  Here
// sweep's wildcard initially feeds on other_out (not a loaded rule's
// output); after a reload that adds a rule named other_out, the sweep
// must stop feeding on it even though sweep's own spec never changed.
func TestReloadInvalidatesResolutions(t *testing.T) {
	st := monitor.NewStore(64)
	in := monitor.Key{Metric: "flops_dp", Scope: monitor.ScopeNode}
	other := monitor.Key{Metric: "other_out", Scope: monitor.ScopeNode}
	st.Append(in, monitor.Point{Time: 0, Value: 10})
	st.Append(other, monitor.Point{Time: 0, Value: 1000})

	sweep := mustRule(t, "sweep = sum(*) over 30s")
	e := newTestEngine(t, st, sweep)
	e.EvalNow()
	out := monitor.Key{Metric: "sweep", Scope: monitor.ScopeNode}
	if got := latestValue(t, st, out); got != 1010 {
		t.Fatalf("sweep before reload = %v, want 1010", got)
	}

	// other_out becomes a loaded rule's output name: the sweep's cached
	// resolution (which includes it) is now wrong.
	e.Reload([]*Rule{
		mustRule(t, "sweep = sum(*) over 30s"),
		mustRule(t, "other_out = sum(flops_dp) over 30s"),
	})
	// Advance the inputs so the dedupe guard lets sweep re-emit.
	st.Append(in, monitor.Point{Time: 10, Value: 10})
	st.Append(other, monitor.Point{Time: 10, Value: 1000})
	e.EvalNow()
	if got := latestValue(t, st, out); got != 10 {
		t.Fatalf("sweep after reload = %v, want 10 (other_out now excluded)", got)
	}
}
