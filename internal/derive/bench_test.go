package derive

import (
	"fmt"
	"testing"

	"likwid/internal/monitor"
)

// benchEngine builds a 1000-series labelled store and one grouped
// roll-up rule over it — the shared fixture of the eval benchmarks.
func benchEngine(b *testing.B) (*Engine, *Rule) {
	b.Helper()
	st := monitor.NewStore(64)
	for n := 0; n < 1000; n++ {
		labels, err := monitor.MakeLabels(map[string]string{"job": fmt.Sprintf("job%d", n%8)})
		if err != nil {
			b.Fatal(err)
		}
		k := monitor.Key{
			Source: fmt.Sprintf("node%03d", n),
			Metric: "flops_dp",
			Scope:  monitor.ScopeNode,
			Labels: labels,
		}
		for i := 0; i < 30; i++ {
			st.Append(k, monitor.Point{Time: float64(i), Value: float64(n + i)})
		}
	}
	r, err := ParseRule(`cluster_flops = sum(flops_dp) by (job) over 30s`, 1)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(Options{Store: st, Clock: monitor.NewFakeClock()}, []*Rule{r})
	if err != nil {
		b.Fatal(err)
	}
	return e, r
}

// BenchmarkDeriveEval evaluates one grouped roll-up over a 1000-series
// store — the cost of a single recorded-rule evaluation at fleet scale.
// The hit sub-benchmark is the steady state: the selector resolution
// (matched keys, grouping, interned output labels) is served from the
// per-rule cache while the store's index generation holds still.  The
// cold sub-benchmark invalidates the cache every iteration, measuring
// the full re-resolution through the selector index — the price paid
// when new series appear.  Evaluation reads the store through the same
// index and window paths as any reader; the append hot path (pinned at
// 0 allocs/op by the monitor benchmarks) is never entered.
func BenchmarkDeriveEval(b *testing.B) {
	b.Run("hit", func(b *testing.B) {
		e, _ := benchEngine(b)
		e.EvalNow() // warm: first eval emits outputs and caches resolution
		e.EvalNow() // second: generation settled after the emitted series
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.EvalNow()
		}
	})
	b.Run("cold", func(b *testing.B) {
		e, _ := benchEngine(b)
		e.EvalNow()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.rt.Invalidate()
			e.EvalNow()
		}
	})
}
