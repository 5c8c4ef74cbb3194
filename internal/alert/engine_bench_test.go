package alert

import (
	"fmt"
	"testing"

	"likwid/internal/monitor"
)

// populateFleetStore bulk-loads n series shaped like a fleet receiver:
// n/100 metrics × 25 sources × 4 core ids, one point each.
func populateFleetStore(tb testing.TB, n int) *monitor.Store {
	tb.Helper()
	st := monitor.NewStore(8)
	metrics := n / 100
	if metrics < 1 {
		metrics = 1
	}
	var b monitor.Batch
	for m := 0; m < metrics; m++ {
		for s := 0; s < 25; s++ {
			for id := 0; id < 4; id++ {
				b.Samples = append(b.Samples, monitor.Sample{
					Source: fmt.Sprintf("node%02d", s),
					Metric: fmt.Sprintf("metric_%03d", m),
					Scope:  monitor.ScopeCore, ID: id,
					Time: 1, Value: 1,
				})
			}
		}
	}
	st.AppendBatch(b)
	return st
}

// TestEvalAllocsSteadyState is the regression pin for the satellite
// fix: once a rule's resolution is cached and its window buffer warm,
// an evaluation over an unchanged store must not allocate — no fresh
// []monitor.Key per eval, no fresh window per series.
func TestEvalAllocsSteadyState(t *testing.T) {
	store := monitor.NewStore(64)
	appendNode(store, "bw", 0, 10, 1, 50)
	rules, err := ParseRules("hot: avg(bw, node, 10s) > 1e12 for 0s")
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(Options{Store: store}, rules)
	if err != nil {
		t.Fatal(err)
	}
	r := rules[0]
	e.rt.Eval(r) // warm the resolution cache and window buffer
	allocs := testing.AllocsPerRun(1000, func() { e.rt.Eval(r) })
	if allocs > 0 {
		t.Fatalf("steady-state evaluation allocates %.1f objects/eval, want 0", allocs)
	}
}

// BenchmarkAlertEvalLargeStore evaluates one fleet-wide rule (wildcard
// source, exact metric: ~1% of the store matches) at receiver scale.
// The cached sub-benchmark is the steady state — resolution served from
// the per-rule cache; cold re-resolves through the index every eval,
// the price paid when the index generation moves.
func BenchmarkAlertEvalLargeStore(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		store := populateFleetStore(b, n)
		rules, err := ParseRules("hot: avg(node*/metric_000, core, 10s) > 1e12 for 0s")
		if err != nil {
			b.Fatal(err)
		}
		e, err := NewEngine(Options{Store: store}, rules)
		if err != nil {
			b.Fatal(err)
		}
		r := rules[0]
		b.Run(fmt.Sprintf("series=%d/cached", n), func(b *testing.B) {
			e.rt.Eval(r) // warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.rt.Eval(r)
			}
		})
		b.Run(fmt.Sprintf("series=%d/cold", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.rt.Invalidate()
				e.rt.Eval(r)
			}
		})
	}
}
