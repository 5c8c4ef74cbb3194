package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"likwid/internal/monitor"
)

// shardNode is one mid-tier receiver of the federation tree: a store
// behind /ingest whose accepted batches re-push to the root through a
// forward dispatcher — the same wiring runReceiver builds for -forward.
type shardNode struct {
	store *monitor.Store
	h     *monitor.HTTPSink
	url   string
	fwd   *Sink
	disp  *monitor.Dispatcher
}

func newShardNode(t *testing.T, rootURL string) *shardNode {
	t.Helper()
	store, h, url := newReceiver(t)
	fwd, err := New(Options{
		Targets:      []string{rootURL},
		Client:       testClient,
		ProbeClient:  testClient,
		Policy:       PolicyFailover,
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	disp := monitor.NewDispatcher(4096, fwd)
	h.SetForward(func(b monitor.Batch) { disp.Publish(b) })
	return &shardNode{store: store, h: h, url: url, fwd: fwd, disp: disp}
}

// agentMetrics is the per-agent series population of the e2e: enough
// keys that both shards own some.
var agentMetrics = []string{"bw", "flops_dp", "cpi", "energy", "l3_ratio", "rapl", "clock", "ipc"}

// pushPhase writes one batch per tick over [from, to) carrying every
// metric; FlushSamples=1 means each write POSTs immediately.
func pushPhase(t *testing.T, s *Sink, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		tm := float64(i)
		samples := make([]monitor.Sample, 0, len(agentMetrics))
		for _, m := range agentMetrics {
			samples = append(samples, monitor.Sample{
				Metric: m, Scope: monitor.ScopeNode, ID: 0, Time: tm, Value: tm,
			})
		}
		_ = s.Write(monitor.Batch{Collector: "perfgroup", Time: tm, Samples: samples})
	}
}

// rootComplete reports whether the root store holds exactly the ticks
// [0, n) for every agent series, each timestamp once.
func rootComplete(root *monitor.Store, sources []string, n int) error {
	for _, src := range sources {
		for _, m := range agentMetrics {
			pts := root.Window(monitor.Key{Source: src, Metric: m, Scope: monitor.ScopeNode, ID: 0}, 0, -1)
			seen := map[float64]bool{}
			for _, p := range pts {
				if seen[p.Time] {
					return fmt.Errorf("%s/%s: timestamp %v appears twice at the root", src, m, p.Time)
				}
				seen[p.Time] = true
			}
			if len(seen) != n {
				var missing []float64
				for i := 0; i < n; i++ {
					if !seen[float64(i)] {
						missing = append(missing, float64(i))
					}
				}
				return fmt.Errorf("%s/%s: root has %d distinct ticks, want %d (missing %v)", src, m, len(seen), n, missing)
			}
		}
	}
	return nil
}

// TestFleetTopologyShardFailoverE2E is the acceptance run: two agents
// shard over a two-receiver pool, each receiver forwards to a root —
// the node → rack → cluster tree.  One shard is killed mid-stream; the
// agents must fail over, and the root's stitched window must hold every
// accepted tick of both agents with no duplicates and no drops.
func TestFleetTopologyShardFailoverE2E(t *testing.T) {
	rootStore, _, rootURL := newReceiver(t)
	shard1 := newShardNode(t, rootURL)
	shard2 := newShardNode(t, rootURL)

	newAgent := func(name string) *Sink {
		s, err := New(Options{
			Targets:      []string{shard1.url, shard2.url},
			Client:       testClient,
			ProbeClient:  testClient,
			Policy:       PolicyShard,
			Source:       name,
			FlushSamples: 1,
			RetryBase:    time.Millisecond,
			// Probes parked out of the run: the kill must be discovered by
			// the write path (passive markdown + reroute), deterministically
			// — probe-driven discovery has its own test.
			ProbeInterval: time.Hour,
			ProbeBackoff:  time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	agentA, agentB := newAgent("agentA"), newAgent("agentB")
	sources := []string{"agentA", "agentB"}

	// Phase 1: both shards alive.  Every series must land on exactly one
	// shard (the ring's owner), and everything must reach the root.
	pushPhase(t, agentA, 0, 25)
	pushPhase(t, agentB, 0, 25)
	split := 0
	for _, src := range sources {
		for _, m := range agentMetrics {
			k := monitor.Key{Source: src, Metric: m, Scope: monitor.ScopeNode, ID: 0}
			n1 := len(shard1.store.Window(k, 0, -1))
			n2 := len(shard2.store.Window(k, 0, -1))
			if n1+n2 != 25 || (n1 != 0 && n2 != 0) {
				t.Fatalf("%s/%s: shards hold %d+%d points, want 25 on exactly one", src, m, n1, n2)
			}
			if n2 == 25 {
				split++
			}
		}
	}
	if split == 0 || split == len(sources)*len(agentMetrics) {
		t.Fatalf("all %d series on one shard; partition did not spread", len(sources)*len(agentMetrics))
	}
	deadline := time.Now().Add(10 * time.Second)
	for rootComplete(rootStore, sources, 25) != nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if err := rootComplete(rootStore, sources, 25); err != nil {
		t.Fatalf("phase 1 never completed at the root: %v", err)
	}

	// Kill shard 1 mid-stream (listener down, hard).  Phase 2 writes must
	// fail over to shard 2 — including the failed flush's stranded
	// samples — and still reach the root.
	_ = shard1.h.Close()
	pushPhase(t, agentA, 25, 50)
	pushPhase(t, agentB, 25, 50)
	if err := agentA.Close(); err != nil {
		t.Errorf("agentA close: %v", err)
	}
	if err := agentB.Close(); err != nil {
		t.Errorf("agentB close: %v", err)
	}
	for rootComplete(rootStore, sources, 50) != nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if err := rootComplete(rootStore, sources, 50); err != nil {
		for _, src := range sources {
			for _, m := range agentMetrics {
				k := monitor.Key{Source: src, Metric: m, Scope: monitor.ScopeNode, ID: 0}
				t.Logf("%s/%s: shard1=%d shard2=%d root=%d", src, m,
					len(shard1.store.Window(k, 0, -1)), len(shard2.store.Window(k, 0, -1)),
					len(rootStore.Window(k, 0, -1)))
			}
		}
		t.Logf("shard2 fwd status: %+v", shard2.fwd.Status())
		t.Fatalf("root window incomplete after failover: %v", err)
	}

	// No accepted sample was lost, and the dead shard shows the reroute.
	for name, s := range map[string]*Sink{"agentA": agentA, "agentB": agentB} {
		if d := s.Dropped(); d != 0 {
			t.Errorf("%s dropped %d samples with a healthy shard available", name, d)
		}
		st := s.Status()
		if st[0].Healthy {
			t.Errorf("%s still believes the killed shard is healthy", name)
		}
		if st[0].Failovers == 0 && shardOwnedKeys(s, name) > 0 {
			t.Errorf("%s rerouted nothing off the killed shard", name)
		}
	}

	// Drain the forward pipelines; the root must not need them anymore.
	if err := shard2.disp.Close(); err != nil {
		t.Errorf("shard2 forward close: %v", err)
	}
	if d := shard2.fwd.Dropped(); d != 0 {
		t.Errorf("shard2 forward dropped %d samples", d)
	}
}

// shardOwnedKeys counts how many of an agent's series the pool's first
// target owned before any failure (full ring).
func shardOwnedKeys(s *Sink, source string) int {
	owned := 0
	first := s.Status()[0].Target
	for _, m := range agentMetrics {
		k := monitor.Key{Source: source, Metric: m, Scope: monitor.ScopeNode, ID: 0}
		if s.fullRing.LookupKey(k) == first {
			owned++
		}
	}
	return owned
}

// TestMirrorHAQueryDedupe is the second acceptance leg: an agent
// mirrors to an HA receiver pair, both mirrors forward to one root, so
// the root stores every point twice — and /query must still return each
// Key+timestamp exactly once.
func TestMirrorHAQueryDedupe(t *testing.T) {
	rootStore, rootH, rootURL := newReceiver(t)
	m1 := newShardNode(t, rootURL)
	m2 := newShardNode(t, rootURL)

	agent, err := New(Options{
		Targets:      []string{m1.url, m2.url},
		Client:       testClient,
		ProbeClient:  testClient,
		Policy:       PolicyMirror,
		Source:       "agentHA",
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		tm := float64(i)
		if err := agent.Write(monitor.Batch{Collector: "perfgroup", Time: tm, Samples: []monitor.Sample{
			{Metric: "bw", Scope: monitor.ScopeNode, ID: 0, Time: tm, Value: tm},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	// Both mirrors hold the full stream; the root eventually holds both
	// copies.
	k := monitor.Key{Source: "agentHA", Metric: "bw", Scope: monitor.ScopeNode, ID: 0}
	waitFor(t, 10*time.Second, func() bool {
		return len(rootStore.Window(k, 0, -1)) >= 40
	}, "root never received both mirrors' copies")

	// The store holds the duplicates (raw HA redundancy) ...
	if n := len(rootStore.Window(k, 0, -1)); n != 40 {
		t.Fatalf("root store has %d points, want 40 (two mirrored copies)", n)
	}
	// ... but /query collapses them: each timestamp exactly once.
	resp, err := testClient.Get("http://" + rootH.Addr() + "/query?source=agentHA&metric=bw&scope=node&id=0")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status %d: %s", resp.StatusCode, body)
	}
	var q struct {
		Points []monitor.Point `json:"points"`
	}
	if err := json.Unmarshal(body, &q); err != nil {
		t.Fatal(err)
	}
	if len(q.Points) != 20 {
		t.Fatalf("/query returned %d points, want 20 deduplicated", len(q.Points))
	}
	for i := 1; i < len(q.Points); i++ {
		if q.Points[i].Time <= q.Points[i-1].Time {
			t.Fatalf("/query points not strictly increasing at %d: %v after %v",
				i, q.Points[i].Time, q.Points[i-1].Time)
		}
	}
	_ = m1.disp.Close()
	_ = m2.disp.Close()
}
