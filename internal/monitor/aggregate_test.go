package monitor

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"likwid/internal/hwdef"
	"likwid/internal/machine"
	"likwid/internal/perfctr"
	"likwid/internal/stats"
	"likwid/internal/topology"
)

func testMachine(t testing.TB, arch string) *machine.Machine {
	t.Helper()
	a, err := hwdef.Lookup(arch)
	if err != nil {
		t.Fatal(err)
	}
	return machine.New(a, machine.Options{})
}

func testAggregator(t *testing.T, cpus []int) *Aggregator {
	t.Helper()
	m := testMachine(t, "westmereEP")
	info, err := topology.Probe(m.CPUs, m.Arch.ClockMHz)
	if err != nil {
		t.Fatal(err)
	}
	return NewAggregator(info, cpus)
}

func find(samples []Sample, metric string, scope Scope, id int) (Sample, bool) {
	for _, s := range samples {
		if s.Metric == metric && s.Scope == scope && s.ID == id {
			return s, true
		}
	}
	return Sample{}, false
}

func TestRollupThreadToNode(t *testing.T) {
	a := testAggregator(t, nil)
	// Westmere EP: 2 sockets; processor 0 is on socket 0, processor 6 on
	// socket 1 (spread numbering, verified through the roll-up itself).
	in := []Sample{
		{Metric: "bw", Scope: ScopeThread, ID: 0, Time: 1, Value: 100},
		{Metric: "bw", Scope: ScopeThread, ID: 1, Time: 1, Value: 50},
		{Metric: "bw", Scope: ScopeThread, ID: 6, Time: 1, Value: 30},
	}
	out := a.Rollup(in)

	node, ok := find(out, "bw", ScopeNode, 0)
	if !ok || node.Value != 180 {
		t.Fatalf("node sum = %+v (ok=%v), want 180", node, ok)
	}
	// Socket sums partition the node total.
	var socketTotal float64
	socketCount := 0
	for _, s := range out {
		if s.Metric == "bw" && s.Scope == ScopeSocket {
			socketTotal += s.Value
			socketCount++
		}
	}
	if socketCount != 2 || socketTotal != 180 {
		t.Errorf("socket roll-ups: %d sockets, total %v, want 2 and 180", socketCount, socketTotal)
	}
	// Distribution stats across the thread values.
	if s, ok := find(out, "bw/min", ScopeNode, 0); !ok || s.Value != 30 {
		t.Errorf("bw/min = %+v ok=%v, want 30", s, ok)
	}
	if s, ok := find(out, "bw/median", ScopeNode, 0); !ok || s.Value != 50 {
		t.Errorf("bw/median = %+v ok=%v, want 50", s, ok)
	}
	if s, ok := find(out, "bw/max", ScopeNode, 0); !ok || s.Value != 100 {
		t.Errorf("bw/max = %+v ok=%v, want 100", s, ok)
	}
	// Core roll-ups exist and carry the timestamps.
	foundCore := false
	for _, s := range out {
		if s.Metric == "bw" && s.Scope == ScopeCore {
			foundCore = true
			if s.Time != 1 {
				t.Errorf("core sample time = %v, want 1", s.Time)
			}
		}
	}
	if !foundCore {
		t.Error("no core-scope roll-ups emitted")
	}
}

func TestRollupSMTSiblingsShareACore(t *testing.T) {
	a := testAggregator(t, nil)
	// Find two processors mapped to the same core by feeding every
	// processor and checking one core bucket got two members.
	in := []Sample{}
	for cpu := 0; cpu < 24; cpu++ {
		in = append(in, Sample{Metric: "x", Scope: ScopeThread, ID: cpu, Time: 1, Value: 1})
	}
	out := a.Rollup(in)
	cores := 0
	for _, s := range out {
		if s.Metric == "x" && s.Scope == ScopeCore {
			cores++
			if s.Value != 2 {
				t.Errorf("core %d sum = %v, want 2 (SMT siblings merged)", s.ID, s.Value)
			}
		}
	}
	if cores != 12 {
		t.Errorf("%d core buckets, want 12 (2 sockets x 6 cores)", cores)
	}
	if node, ok := find(out, "x", ScopeNode, 0); !ok || node.Value != 24 {
		t.Errorf("node sum = %+v, want 24", node)
	}
}

func TestRollupMeanMetrics(t *testing.T) {
	a := testAggregator(t, nil)
	a.SetMean("cpi")
	in := []Sample{
		{Metric: "cpi", Scope: ScopeThread, ID: 0, Time: 1, Value: 1},
		{Metric: "cpi", Scope: ScopeThread, ID: 6, Time: 1, Value: 3},
	}
	out := a.Rollup(in)
	if node, ok := find(out, "cpi", ScopeNode, 0); !ok || node.Value != 2 {
		t.Errorf("mean node cpi = %+v, want 2", node)
	}
}

func TestRollupSocketSamplesToNode(t *testing.T) {
	a := testAggregator(t, nil)
	in := []Sample{
		{Metric: "mem_bw", Scope: ScopeSocket, ID: 0, Time: 2, Value: 10},
		{Metric: "mem_bw", Scope: ScopeSocket, ID: 1, Time: 2, Value: 20},
	}
	out := a.Rollup(in)
	node, ok := find(out, "mem_bw", ScopeNode, 0)
	if !ok || node.Value != 30 || node.Time != 2 {
		t.Fatalf("node roll-up of socket samples = %+v ok=%v, want 30 @ t=2", node, ok)
	}
	// Socket inputs must not be re-emitted at socket scope.
	for _, s := range out {
		if s.Metric == "mem_bw" && s.Scope == ScopeSocket {
			t.Errorf("socket input re-emitted: %+v", s)
		}
	}
}

func TestRollupIgnoresUnmappedAndNodeScope(t *testing.T) {
	a := testAggregator(t, []int{0, 1})
	out := a.Rollup([]Sample{
		{Metric: "y", Scope: ScopeThread, ID: 23, Time: 1, Value: 5}, // not monitored
		{Metric: "z", Scope: ScopeNode, ID: 0, Time: 1, Value: 7},    // already top level
	})
	if len(out) != 0 {
		t.Errorf("Rollup emitted %+v for unmapped/node inputs, want nothing", out)
	}
}

// referenceRollup is the map-based roll-up the plans replace, kept as
// the model they must match bit for bit: a metric map in first-appearance
// order, one bucket map per domain, ids sorted per scope.
func referenceRollup(a *Aggregator, samples []Sample) []Sample {
	type metricAgg struct {
		cores   map[int]*bucket
		sockets map[int]*bucket
		node    bucket
		values  []float64
		time    float64
	}
	perMetric := map[string]*metricAgg{}
	order := []string{}
	get := func(metric string) *metricAgg {
		ma := perMetric[metric]
		if ma == nil {
			ma = &metricAgg{cores: map[int]*bucket{}, sockets: map[int]*bucket{}}
			perMetric[metric] = ma
			order = append(order, metric)
		}
		return ma
	}
	getBucket := func(m map[int]*bucket, id int) *bucket {
		b := m[id]
		if b == nil {
			b = &bucket{}
			m[id] = b
		}
		return b
	}
	for _, s := range samples {
		ma := get(s.Metric)
		if s.Time > ma.time {
			ma.time = s.Time
		}
		switch s.Scope {
		case ScopeThread:
			core, ok := a.coreOf[s.ID]
			if !ok {
				continue
			}
			getBucket(ma.cores, core).add(s.Value)
			getBucket(ma.sockets, a.socketOf[s.ID]).add(s.Value)
			ma.node.add(s.Value)
			ma.values = append(ma.values, s.Value)
		case ScopeSocket:
			ma.node.add(s.Value)
			ma.values = append(ma.values, s.Value)
		}
	}
	var out []Sample
	emit := func(metric string, scope Scope, id int, t, v float64) {
		out = append(out, Sample{Metric: metric, Scope: scope, ID: id, Time: t, Value: v})
	}
	for _, metric := range order {
		ma := perMetric[metric]
		if ma.node.n == 0 {
			continue
		}
		a.mu.RLock()
		mean := a.mean[metric]
		a.mu.RUnlock()
		for _, id := range slices.Sorted(maps.Keys(ma.cores)) {
			emit(metric, ScopeCore, id, ma.time, ma.cores[id].value(mean))
		}
		for _, id := range slices.Sorted(maps.Keys(ma.sockets)) {
			emit(metric, ScopeSocket, id, ma.time, ma.sockets[id].value(mean))
		}
		emit(metric, ScopeNode, 0, ma.time, ma.node.value(mean))
		if len(ma.values) > 1 {
			sum := stats.Summarize(ma.values)
			emit(metric+"/min", ScopeNode, 0, ma.time, sum.Min)
			emit(metric+"/median", ScopeNode, 0, ma.time, sum.Median)
			emit(metric+"/max", ScopeNode, 0, ma.time, sum.Max)
		}
	}
	return out
}

// bucket accumulates one domain's member values.
type bucket struct {
	sum float64
	n   int
}

func (b *bucket) add(v float64) { b.sum += v; b.n++ }

func (b bucket) value(mean bool) float64 {
	if mean && b.n > 0 {
		return b.sum / float64(b.n)
	}
	return b.sum
}

// sameSamples fails unless got and want hold the same samples in the
// same order, times and values compared bit for bit.
func sameSamples(t *testing.T, what string, got, want []Sample) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d:\n got %+v\nwant %+v", what, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Key() != w.Key() || math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%s: sample %d = %+v, want %+v", what, i, g, w)
		}
	}
}

// TestRollupPlanMatchesReference holds the roll-up plans to the map
// model: real ticks of every shipped machine and group, then random
// batches with unmapped processors, node and core rows, SMT siblings,
// mean metrics, missing rows, repeated keys and non-finite values.  A
// plan is also rerun on the next tick of its shape, as the scheduler
// reuses it.
func TestRollupPlanMatchesReference(t *testing.T) {
	for _, arch := range hwdef.Names() {
		m := testMachine(t, arch)
		info, err := topology.Probe(m.CPUs, m.Arch.ClockMHz)
		if err != nil {
			t.Fatal(err)
		}
		for _, group := range perfctr.GroupNames(m.Arch) {
			m := testMachine(t, arch)
			c, err := DefaultRegistry.Build("perfgroup", Config{
				Machine: m, Group: group, Interval: 10 * time.Millisecond, RawEvents: true,
				Advance: streamAdvance(t, m, 0, m.OS.NumCPUs()-1),
			})
			if err != nil {
				t.Fatalf("%s/%s: %v", arch, group, err)
			}
			a := NewAggregator(info, nil)
			a.SetMean(c.(AggregationHinter).MeanMetrics()...)
			var p *rollupPlan
			var keys []Key
			for tick := 0; tick < 3; tick++ {
				samples, err := c.Collect(context.Background())
				if err != nil {
					t.Fatalf("%s/%s: %v", arch, group, err)
				}
				what := fmt.Sprintf("%s/%s tick %d", arch, group, tick)
				want := referenceRollup(a, samples)
				sameSamples(t, what, a.Rollup(samples), want)
				if !slices.Equal(keys, sampleKeys(samples)) {
					p, keys = a.plan(samples), sampleKeys(samples)
				}
				sameSamples(t, what+" (cached plan)", p.run(nil, samples), want)
			}
			_ = c.(*PerfGroupCollector).Stop()
		}
	}

	rng := rand.New(rand.NewPCG(37, 1))
	a := testAggregator(t, []int{0, 1, 2, 6, 12, 13, 18}) // SMT pairs 0/12, 1/13, 6/18
	a.SetMean("cpi", "c")
	lbm := mustLabels(t, "job=lbm")
	metrics := []string{"bw", "cpi", "c", "bw/min", "x"}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, -1, 1e300}
	value := func() float64 {
		if rng.IntN(8) == 0 {
			return specials[rng.IntN(len(specials))]
		}
		return rng.NormFloat64() * 1e3
	}
	for n := 0; n < 2000; n++ {
		var batch []Sample
		for i, rows := 0, rng.IntN(40); i < rows; i++ {
			if i > 0 && rng.IntN(10) == 0 {
				batch = append(batch, batch[rng.IntN(len(batch))]) // a repeated key
				continue
			}
			sm := Sample{Metric: metrics[rng.IntN(len(metrics))], Scope: Scope(rng.IntN(4)), ID: rng.IntN(26) - 1,
				Time: float64(rng.IntN(5)) - 1, Value: value()}
			if rng.IntN(6) == 0 {
				sm.Source, sm.Labels = "nodeB", lbm
			}
			batch = append(batch, sm)
		}
		what := fmt.Sprintf("random batch %d", n)
		p := a.plan(batch)
		sameSamples(t, what, p.run(nil, batch), referenceRollup(a, batch))
		for i := range batch { // the next tick: same keys, new readings
			batch[i].Time, batch[i].Value = batch[i].Time+1, value()
		}
		sameSamples(t, what+" rerun", p.run(nil, batch), referenceRollup(a, batch))
	}
}

func sampleKeys(samples []Sample) []Key {
	keys := make([]Key, len(samples))
	for i, sm := range samples {
		keys[i] = sm.Key()
	}
	return keys
}

// BenchmarkRollup times one westmereEP MEM_DP tick: the scheduler's
// cached plan (its one allocation is the grown output slice), a
// one-shot Rollup that plans the shape first, and the map model.
func BenchmarkRollup(b *testing.B) {
	m := testMachine(b, "westmereEP")
	info, err := topology.Probe(m.CPUs, m.Arch.ClockMHz)
	if err != nil {
		b.Fatal(err)
	}
	c, err := DefaultRegistry.Build("perfgroup", Config{Machine: m, Group: "MEM_DP", Interval: 10 * time.Millisecond,
		Advance: streamAdvance(b, m)})
	if err != nil {
		b.Fatal(err)
	}
	tick, err := c.Collect(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	a := NewAggregator(info, nil)
	a.SetMean(c.(AggregationHinter).MeanMetrics()...)
	p := a.plan(tick)
	for _, bc := range []struct {
		name string
		run  func() []Sample
	}{
		{"plan", func() []Sample { return p.run(slices.Clip(tick), tick) }},
		{"oneshot", func() []Sample { return a.Rollup(tick) }},
		{"reference", func() []Sample { return referenceRollup(a, tick) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rollupSink = bc.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
		})
	}
}

var rollupSink []Sample
