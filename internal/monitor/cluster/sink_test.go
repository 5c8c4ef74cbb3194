package cluster

import (
	"fmt"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// newReceiver boots a real receiver (store + HTTP sink on a loopback
// port) and returns its store, sink, and ingest URL.
func newReceiver(t *testing.T) (*monitor.Store, *monitor.HTTPSink, string) {
	t.Helper()
	store := monitor.NewStore(256)
	h, err := monitor.NewHTTPSink("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return store, h, "http://" + h.Addr() + "/ingest"
}

// deadURL returns an ingest URL nothing listens on: bind a port, close
// it, keep the address.
func deadURL(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return "http://" + addr + "/ingest"
}

// batchOf builds a one-sample batch for metric at time tm.
func batchOf(metric string, tm, v float64) monitor.Batch {
	return monitor.Batch{Collector: "test", Time: tm, Samples: []monitor.Sample{
		{Metric: metric, Scope: monitor.ScopeNode, ID: 0, Time: tm, Value: v},
	}}
}

// window fetches one series' points from a receiver store under the
// agent identity the cluster sink stamps.
func window(store *monitor.Store, source, metric string) []monitor.Point {
	return store.Window(monitor.Key{Source: source, Metric: metric, Scope: monitor.ScopeNode, ID: 0}, 0, -1)
}

// TestClusterShardPartitioning pins the tentpole invariant: under shard
// policy every series lands on exactly the receiver the ring assigns it,
// and a realistic metric population splits across the pool.
func TestClusterShardPartitioning(t *testing.T) {
	store1, _, url1 := newReceiver(t)
	store2, _, url2 := newReceiver(t)
	s, err := New(Options{
		Targets:      []string{url1, url2},
		Policy:       PolicyShard,
		Source:       "agent",
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := make([]string, 40)
	for i := range metrics {
		metrics[i] = "m" + string(rune('a'+i/10)) + string(rune('0'+i%10))
		if err := s.Write(batchOf(metrics[i], 1, float64(i))); err != nil {
			t.Fatalf("write %s: %v", metrics[i], err)
		}
	}
	ring := s.Ring()
	stores := map[string]*monitor.Store{hostOf(t, url1): store1, hostOf(t, url2): store2}
	both := map[string]bool{}
	for _, m := range metrics {
		owner := ring.LookupKey(monitor.Key{Source: "agent", Metric: m, Scope: monitor.ScopeNode, ID: 0})
		both[owner] = true
		for name, st := range stores {
			got := len(window(st, "agent", m))
			want := 0
			if name == owner {
				want = 1
			}
			if got != want {
				t.Errorf("metric %s on %s: %d points, want %d (owner %s)", m, name, got, want, owner)
			}
		}
	}
	if len(both) != 2 {
		t.Errorf("40 series landed on %d of 2 targets; partition did not spread", len(both))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if d := s.Dropped(); d != 0 {
		t.Errorf("dropped %d samples with every target healthy", d)
	}
}

// TestClusterShardRoutesByWireSource pins the shard owner to the key
// the receiver stores: a sourceless sample and a self-telemetry sample
// both go out under the agent's push identity (monitor.WireSource), so
// each must land on the target the ring names for that resolved key.
// A sample from another agent keeps its own source.
func TestClusterShardRoutesByWireSource(t *testing.T) {
	store1, _, url1 := newReceiver(t)
	store2, _, url2 := newReceiver(t)
	s, err := New(Options{
		Targets:      []string{url1, url2},
		Policy:       PolicyShard,
		Source:       "agent",
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ring := s.Ring()
	stores := map[string]*monitor.Store{hostOf(t, url1): store1, hostOf(t, url2): store2}
	for si, source := range []string{"", monitor.SelfSource, "other"} {
		wire := monitor.WireSource(source, "agent")
		owners := map[string]bool{}
		for i := 0; i < 40; i++ {
			m := fmt.Sprintf("m%d_%02d", si, i) // "" and self share the wire source
			if err := s.Write(monitor.Batch{Collector: "test", Time: 1, Samples: []monitor.Sample{
				{Source: source, Metric: m, Scope: monitor.ScopeNode, Time: 1, Value: float64(i)},
			}}); err != nil {
				t.Fatal(err)
			}
			owner := ring.LookupKey(monitor.Key{Source: wire, Metric: m, Scope: monitor.ScopeNode})
			owners[owner] = true
			for name, st := range stores {
				want := 0
				if name == owner {
					want = 1
				}
				if got := len(window(st, wire, m)); got != want {
					t.Errorf("source %q metric %s on %s: %d points under %q, want %d (owner %s)",
						source, m, name, got, wire, want, owner)
				}
			}
		}
		if len(owners) != 2 {
			t.Errorf("source %q: 40 series landed on %d of 2 targets", source, len(owners))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterShardAllDownParksOnFullRing pins where a batch waits while
// the whole pool is down: every sample on its full-ring owner, in batch
// order, so each target's pending is the same on every run.
func TestClusterShardAllDownParksOnFullRing(t *testing.T) {
	s, err := New(Options{
		Targets:       []string{deadURL(t), deadURL(t), deadURL(t)},
		Policy:        PolicyShard,
		Source:        "agent",
		FlushSamples:  1000,
		RetryBase:     time.Millisecond,
		ProbeInterval: time.Hour,
		ProbeBackoff:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	for _, st := range s.Status() {
		if err := s.SetHealthy(st.Target, false); err != nil {
			t.Fatal(err)
		}
	}
	var batch []monitor.Sample
	want := map[string][]monitor.Sample{}
	for i := 0; i < 60; i++ {
		sm := monitor.Sample{Source: []string{"", monitor.SelfSource, "other"}[i%3],
			Metric: fmt.Sprintf("m%02d", i), Scope: monitor.ScopeNode, Time: 1, Value: float64(i)}
		batch = append(batch, sm)
		k := sm.Key()
		k.Source = monitor.WireSource(k.Source, "agent")
		owner := s.fullRing.LookupKey(k)
		sm.Source = k.Source // the push sink stamps the wire source at enqueue
		want[owner] = append(want[owner], sm)
	}
	if err := s.Write(monitor.Batch{Collector: "test", Time: 1, Samples: batch}); err != nil {
		t.Fatal(err)
	}
	for _, tg := range s.targets {
		if got := tg.push.Pending(); got != len(want[tg.name]) {
			t.Errorf("%s: %d pending, want %d (its full-ring share)", tg.name, got, len(want[tg.name]))
		}
		if got := tg.push.TakePending(); !slices.Equal(got, want[tg.name]) {
			t.Errorf("%s parked\n%v\nwant (batch order)\n%v", tg.name, got, want[tg.name])
		}
	}
	if len(want) < 2 {
		t.Errorf("60 series parked on %d of 3 targets; the test needs a split", len(want))
	}
}

// hostOf extracts a target's pool-member name from its ingest URL.
func hostOf(t *testing.T, url string) string {
	t.Helper()
	u, err := normalizeTarget(url)
	if err != nil {
		t.Fatal(err)
	}
	return u.name
}

// TestClusterFailover pins the ordered-fallback policy: everything goes
// to the primary while it lives; when it dies mid-stream the stranded
// pending re-routes to the standby and nothing is lost.
func TestClusterFailover(t *testing.T) {
	store1, h1, url1 := newReceiver(t)
	store2, _, url2 := newReceiver(t)
	s, err := New(Options{
		Targets:      []string{url1, url2},
		Policy:       PolicyFailover,
		Source:       "agent",
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Write(batchOf("bw", float64(i), float64(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if n := len(window(store1, "agent", "bw")); n != 10 {
		t.Fatalf("primary has %d points, want 10", n)
	}
	if n := len(window(store2, "agent", "bw")); n != 0 {
		t.Fatalf("standby has %d points before failover, want 0", n)
	}
	// Kill the primary mid-stream; the next write must fail over.
	_ = h1.Close()
	for i := 10; i < 20; i++ {
		_ = s.Write(batchOf("bw", float64(i), float64(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(window(store2, "agent", "bw")); n != 10 {
		t.Errorf("standby has %d points after failover, want 10", n)
	}
	st := s.Status()
	if st[0].Failovers == 0 {
		t.Error("primary shows no failovers after dying mid-stream")
	}
	if st[0].Healthy {
		t.Error("primary still marked healthy after failed writes")
	}
	if d := s.Dropped(); d != 0 {
		t.Errorf("failover dropped %d samples with a healthy standby", d)
	}
}

// TestClusterShardMidPassFailureKeepsHealthyParts pins a loss bug:
// when one batch partitions across two targets and the dead target's
// part is attempted first, the healthy target's part of the same pass
// must still be delivered — not abandoned along with the reroute.
func TestClusterShardMidPassFailureKeepsHealthyParts(t *testing.T) {
	_, h1, url1 := newReceiver(t)
	store2, _, url2 := newReceiver(t)
	s, err := New(Options{
		Targets:      []string{url1, url2},
		Policy:       PolicyShard,
		Source:       "agent",
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
		// Parked probes: the kill must be discovered by the write pass
		// under test, not raced away by a prober.
		ProbeInterval: time.Hour,
		ProbeBackoff:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	// One metric owned by each target, so a single batch partitions
	// across both with the (about to die) first target's part first.
	ring := s.Ring()
	name1, name2 := hostOf(t, url1), hostOf(t, url2)
	var m1, m2 string
	for i := 0; m1 == "" || m2 == ""; i++ {
		m := fmt.Sprintf("metric%03d", i)
		switch ring.LookupKey(monitor.Key{Source: "agent", Metric: m, Scope: monitor.ScopeNode, ID: 0}) {
		case name1:
			if m1 == "" {
				m1 = m
			}
		case name2:
			if m2 == "" {
				m2 = m
			}
		}
	}
	_ = h1.Close()
	if err := s.Write(monitor.Batch{Collector: "test", Time: 1, Samples: []monitor.Sample{
		{Metric: m1, Scope: monitor.ScopeNode, ID: 0, Time: 1, Value: 1},
		{Metric: m2, Scope: monitor.ScopeNode, ID: 0, Time: 1, Value: 2},
	}}); err != nil {
		t.Fatalf("write after reroute: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(window(store2, "agent", m1)); n != 1 {
		t.Errorf("dead target's series has %d points on the survivor, want 1 (reroute)", n)
	}
	if n := len(window(store2, "agent", m2)); n != 1 {
		t.Errorf("healthy target's series has %d points, want 1 (same-pass delivery)", n)
	}
	if d := s.Dropped(); d != 0 {
		t.Errorf("mid-pass failure dropped %d samples", d)
	}
}

// TestClusterMirrorBufferAndCatchUp pins the HA policy: every target
// gets the full stream; a down mirror buffers (bounded) and catches up
// when it recovers — no reroute, no loss.
func TestClusterMirrorBufferAndCatchUp(t *testing.T) {
	store1, _, url1 := newReceiver(t)
	store2, _, url2 := newReceiver(t)
	s, err := New(Options{
		Targets:      []string{url1, url2},
		Policy:       PolicyMirror,
		Source:       "agent",
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Write(batchOf("bw", float64(i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n1, n2 := len(window(store1, "agent", "bw")), len(window(store2, "agent", "bw")); n1 != 5 || n2 != 5 {
		t.Fatalf("mirrors have %d/%d points, want 5/5", n1, n2)
	}
	// Mirror 2 goes down: writes keep flowing to mirror 1 and buffer for
	// mirror 2.
	if err := s.SetHealthy(hostOf(t, url2), false); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		if err := s.Write(batchOf("bw", float64(i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n1, n2 := len(window(store1, "agent", "bw")), len(window(store2, "agent", "bw")); n1 != 10 || n2 != 5 {
		t.Fatalf("mirrors have %d/%d points during outage, want 10/5", n1, n2)
	}
	// Recovery: the next write ships the buffered backlog too.
	if err := s.SetHealthy(hostOf(t, url2), true); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(batchOf("bw", 10, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n1, n2 := len(window(store1, "agent", "bw")), len(window(store2, "agent", "bw")); n1 != 11 || n2 != 11 {
		t.Errorf("mirrors have %d/%d points after recovery, want 11/11", n1, n2)
	}
	if d := s.Dropped(); d != 0 {
		t.Errorf("mirror catch-up dropped %d samples", d)
	}
}

// TestClusterProbeTransitions pins the health checker: a dead target is
// discovered by probing alone (no write needed), and a recovered one
// re-enters the ring without intervention.
func TestClusterProbeTransitions(t *testing.T) {
	_, _, url1 := newReceiver(t)
	dead := deadURL(t)
	s, err := New(Options{
		Targets:       []string{url1, dead},
		Policy:        PolicyShard,
		ProbeInterval: 10 * time.Millisecond,
		ProbeBackoff:  5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	// The prober must discover the dead target on its own.
	waitFor(t, time.Second, func() bool {
		st := s.Status()
		return !st[1].Healthy && s.Ring().Len() == 1
	}, "prober never marked the dead target unhealthy")

	// Force the live target down; the prober must bring it back.
	if err := s.SetHealthy(hostOf(t, url1), false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, time.Second, func() bool {
		return s.Status()[0].Healthy && s.Ring().Len() == 1
	}, "prober never recovered the healthy target")

	if err := s.SetHealthy("no-such-target", true); err == nil {
		t.Error("SetHealthy accepted an unknown target")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestClusterCloseDrains pins the graceful-drain satellite: samples
// buffered against a dead primary at shutdown re-route to the healthy
// standby instead of being counted as drops.
func TestClusterCloseDrains(t *testing.T) {
	dead := deadURL(t)
	store2, _, url2 := newReceiver(t)
	s, err := New(Options{
		Targets:      []string{dead, url2},
		Policy:       PolicyFailover,
		Source:       "agent",
		FlushSamples: 1000, // never auto-flush: everything rides on Close
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Write(batchOf("bw", float64(i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(window(store2, "agent", "bw")); n != 0 {
		t.Fatalf("standby has %d points before close, want 0 (nothing flushed yet)", n)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if n := len(window(store2, "agent", "bw")); n != 10 {
		t.Errorf("standby has %d points after drain, want 10", n)
	}
	if d := s.Dropped(); d != 0 {
		t.Errorf("drain dropped %d samples with a healthy standby", d)
	}
}

// TestClusterSingletonKeepsRetryLadder pins the satellite cap's flip
// side: a pool of one has nothing to fail over to, so it must keep the
// full retry ladder instead of the single-attempt fast path.
func TestClusterSingletonKeepsRetryLadder(t *testing.T) {
	dead := deadURL(t)
	s, err := New(Options{
		Targets:      []string{dead},
		Policy:       PolicyFailover,
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Write(batchOf("bw", 0, 0))
	if r := s.Status()[0].Retries; r < 2 {
		t.Errorf("singleton pool made %d attempts, want the full ladder (>=3)", r+1)
	}
	_ = s.Close()
}

// TestClusterTargetRefusalsByReason pins that a target's enqueue-time
// refusals are visible: one non-finite, one negative-time and one
// negative-id sample among good ones each count once under
// likwid_cluster_target_dropped_total{target,reason}, and the good
// samples still arrive.
func TestClusterTargetRefusalsByReason(t *testing.T) {
	store, _, url := newReceiver(t)
	s, err := New(Options{
		Targets:      []string{url},
		Source:       "agent",
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	s.Instrument(reg)
	sample := func(tm, v float64, id int) monitor.Sample {
		return monitor.Sample{Metric: "bw", Scope: monitor.ScopeNode, ID: id, Time: tm, Value: v}
	}
	if err := s.Write(monitor.Batch{Collector: "test", Time: 2, Samples: []monitor.Sample{
		sample(1, 1, 0), sample(1.5, math.NaN(), 0), sample(-1, 1, 0), sample(1.5, 1, -1), sample(2, 2, 0),
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(window(store, "agent", "bw")); n != 2 {
		t.Errorf("receiver holds %d good points, want 2", n)
	}
	got := map[string]float64{}
	for _, m := range reg.Snapshot().Metrics {
		if m.Name == "likwid_cluster_target_dropped_total" && m.Labels["reason"] != "" {
			if m.Labels["target"] != hostOf(t, url) {
				t.Errorf("refusal counter labelled target=%q, want %q", m.Labels["target"], hostOf(t, url))
			}
			got[m.Labels["reason"]] = m.Value
		}
	}
	for _, reason := range []string{"non_finite", "negative_time", "negative_id"} {
		if got[reason] != 1 {
			t.Errorf("likwid_cluster_target_dropped_total{reason=%q} = %v, want 1 (all: %v)", reason, got[reason], got)
		}
	}
}
