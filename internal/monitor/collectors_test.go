package monitor

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"likwid/internal/machine"
)

// streamAdvance drives one streaming task on each of cpus (0 and 6, one
// per Westmere EP socket, by default) for dt simulated seconds per tick,
// so the counters have traffic to show.
func streamAdvance(t testing.TB, m *machine.Machine, cpus ...int) func(float64) {
	t.Helper()
	perElem := machine.PerElem{
		Cycles:       1.0,
		Counts:       machine.Counts{machine.EvInstr: 3, machine.EvFlopsPackedDP: 1},
		MemReadBytes: 16, MemWriteBytes: 8,
		Streams: 3, Vector: true,
	}
	if len(cpus) == 0 {
		cpus = []int{0, 6}
	}
	var works []*machine.ThreadWork
	for _, cpu := range cpus {
		task := m.OS.Spawn(fmt.Sprintf("load-%d", cpu), nil)
		if err := m.OS.Pin(task, cpu); err != nil {
			t.Fatal(err)
		}
		works = append(works, &machine.ThreadWork{Task: task, PerElem: perElem})
	}
	return func(dt float64) {
		for _, w := range works {
			w.Elems = 2e8 * dt
			w.Done = 0
			w.FinishTime = 0
		}
		if elapsed := m.RunPhase(works, 0); elapsed < dt {
			m.RunIdle(dt-elapsed, 0)
		}
	}
}

func TestPerfGroupCollectorEndToEnd(t *testing.T) {
	m := testMachine(t, "westmereEP")
	cfg := Config{
		Machine:   m,
		MachineMu: new(sync.Mutex),
		Group:     "MEM_DP",
		Interval:  10 * time.Millisecond,
		Advance:   streamAdvance(t, m),
	}
	c, err := DefaultRegistry.Build("perfgroup", cfg)
	if err != nil {
		t.Fatal(err)
	}
	pg := c.(*PerfGroupCollector)
	if pg.Name() != "perfgroup/MEM_DP" {
		t.Errorf("Name = %q", pg.Name())
	}

	samples, err := pg.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Socket-scope memory bandwidth on both sockets, nonzero under load.
	for socket := 0; socket < 2; socket++ {
		s, ok := find(samples, "memory_bandwidth_mbytes_s", ScopeSocket, socket)
		if !ok {
			t.Fatalf("no socket %d bandwidth sample in %+v", socket, samples)
		}
		if s.Value <= 0 {
			t.Errorf("socket %d bandwidth = %v, want > 0 under streaming load", socket, s.Value)
		}
	}
	// Thread-scope flops on the loaded processors.
	if s, ok := find(samples, "dp_mflops_s", ScopeThread, 0); !ok || s.Value <= 0 {
		t.Errorf("cpu 0 dp_mflops_s = %+v ok=%v, want > 0", s, ok)
	}
	if s, ok := find(samples, "dp_mflops_s", ScopeThread, 1); !ok || s.Value != 0 {
		t.Errorf("idle cpu 1 dp_mflops_s = %+v ok=%v, want 0", s, ok)
	}
	// Intensive metrics are declared for mean aggregation, rates are not.
	means := map[string]bool{}
	for _, name := range pg.MeanMetrics() {
		means[name] = true
	}
	if !means["cpi"] {
		t.Error("cpi not declared as a mean metric")
	}
	if means["dp_mflops_s"] || means["memory_bandwidth_mbytes_s"] {
		t.Errorf("rate metrics declared mean: %v", pg.MeanMetrics())
	}

	// A second tick keeps the series moving monotonically in time.
	again, err := pg.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := find(samples, "cpi", ScopeThread, 0)
	s2, ok := find(again, "cpi", ScopeThread, 0)
	if !ok || s2.Time <= s1.Time {
		t.Errorf("second tick time %v not after first %v", s2.Time, s1.Time)
	}
	if err := pg.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestPerfGroupCollectorCancelledContext(t *testing.T) {
	m := testMachine(t, "westmereEP")
	c, err := DefaultRegistry.Build("perfgroup", Config{Machine: m, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.(*PerfGroupCollector).Collect(ctx); err == nil {
		t.Error("Collect on cancelled context must fail")
	}
}

func TestAuxiliaryCollectors(t *testing.T) {
	m := testMachine(t, "westmereEP")
	cfg := Config{Machine: m, MachineMu: new(sync.Mutex), Interval: time.Second}
	ctx := context.Background()

	topo, err := DefaultRegistry.Build("topology", cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := topo.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := find(samples, "topo/sockets", ScopeNode, 0); !ok || s.Value != 2 {
		t.Errorf("topo/sockets = %+v ok=%v, want 2", s, ok)
	}
	if s, ok := find(samples, "topo/hw_threads", ScopeNode, 0); !ok || s.Value != 24 {
		t.Errorf("topo/hw_threads = %+v ok=%v, want 24", s, ok)
	}

	feat, err := DefaultRegistry.Build("features", cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err = feat.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := find(samples, "feature/prefetchers_enabled", ScopeNode, 0); !ok || s.Value <= 0 {
		t.Errorf("prefetchers_enabled = %+v ok=%v, want > 0 at boot", s, ok)
	}

	bw, err := DefaultRegistry.Build("membw", cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples, err = bw.Collect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for socket := 0; socket < 2; socket++ {
		if s, ok := find(samples, "membw/socket_capacity_bytes", ScopeSocket, socket); !ok || s.Value <= 0 {
			t.Errorf("socket %d capacity = %+v ok=%v", socket, s, ok)
		}
	}
}

func TestFeaturesCollectorRejectsAMD(t *testing.T) {
	m := testMachine(t, "shanghai")
	if _, err := DefaultRegistry.Build("features", Config{Machine: m, Interval: time.Second}); err == nil {
		t.Error("features collector must fail on AMD (no IA32_MISC_ENABLE)")
	}
}

// TestRegistryRejectsUnknown pins the registry's lookups: an unknown
// name fails with the available names, and Names lists them sorted.
func TestRegistryRejectsUnknown(t *testing.T) {
	f := func(Config) (Collector, error) { return nil, nil }
	r := Registry{"y": f, "x": f}
	if _, err := r.Build("nope", Config{}); err == nil || !strings.Contains(err.Error(), "x, y") {
		t.Errorf("unknown collector: err = %v, want a failure naming x, y", err)
	}
	if got := r.Names(); !slices.Equal(got, []string{"x", "y"}) {
		t.Errorf("Names = %v", got)
	}
}

func TestSanitizeMetric(t *testing.T) {
	cases := map[string]string{
		"DP MFlops/s":                 "dp_mflops_s",
		"Memory bandwidth [MBytes/s]": "memory_bandwidth_mbytes_s",
		"CPI":                         "cpi",
		"Runtime [s]":                 "runtime_s",
		"__weird--name__":             "weird_name",
	}
	for in, want := range cases {
		if got := SanitizeMetric(in); got != want {
			t.Errorf("SanitizeMetric(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestSanitizeMetricCanonicalIsIdentity pins the fast path: a name
// already in exposition form comes back as the same string without an
// allocation, and every near miss takes the rebuilding path (forced in
// the reference by a leading separator, which that path trims).
func TestSanitizeMetricCanonicalIsIdentity(t *testing.T) {
	for _, name := range []string{"", "cpi", "dp_mflops_s", "memory_bandwidth_mbytes_s", "l2_0_miss_ratio"} {
		if got := SanitizeMetric(name); got != name || unsafe.StringData(got) != unsafe.StringData(name) {
			t.Errorf("SanitizeMetric(%q) = %q, want the same string", name, got)
		}
		if n := testing.AllocsPerRun(100, func() { _ = SanitizeMetric(name) }); n != 0 {
			t.Errorf("SanitizeMetric(%q): %v allocs, want 0", name, n)
		}
	}
	for in, want := range map[string]string{"_a": "a", "a_": "a", "a__b": "a_b", "A": "a", "a.b": "a_b", "ä": "ä"} {
		if got, slow := SanitizeMetric(in), SanitizeMetric(" "+in); got != slow || got != want {
			t.Errorf("SanitizeMetric(%q) = %q, rebuilding path %q, want %q", in, got, slow, want)
		}
	}
}

// TestPerfGroupRowOrderIsStable pins the row order a collector's
// consumers key on: every tick of one group emits the same identities
// in the same order, socket rows included.
func TestPerfGroupRowOrderIsStable(t *testing.T) {
	m := testMachine(t, "westmereEP")
	c, err := DefaultRegistry.Build("perfgroup", Config{Machine: m, Group: "MEM_DP", Interval: 10 * time.Millisecond,
		Advance: streamAdvance(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	var first []Key
	for tick := 0; tick < 20; tick++ {
		samples, err := c.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		keys := sampleKeys(samples)
		if tick == 0 {
			first = keys
			continue
		}
		if !slices.Equal(keys, first) {
			t.Fatalf("tick %d emits\n%v\nafter\n%v", tick, keys, first)
		}
	}
}

// BenchmarkPerfGroupCollect times one westmereEP MEM_DP perfgroup tick
// over an idle node: the counter read, the interval deltas, the metric
// program over every hardware thread and the output samples (its one
// allocation).
func BenchmarkPerfGroupCollect(b *testing.B) {
	m := testMachine(b, "westmereEP")
	c, err := DefaultRegistry.Build("perfgroup", Config{Machine: m, Group: "MEM_DP", Interval: 10 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Collect(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, err := c.Collect(ctx); err != nil || len(out) == 0 {
			b.Fatalf("Collect = %d samples, %v", len(out), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/tick")
}
