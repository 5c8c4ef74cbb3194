// Node-monitoring: the paper's side-effect use of likwid-perfCtr as a
// monitoring tool for a complete shared-memory node (§II-A), grown into
// the continuous agent of the monitoring subsystem: collectors wrap the
// tools, a scheduler samples them on an interval, samples are rolled up
// per topology domain into a ring-buffer store, and batches fan out to
// sinks.
//
// A "foreign" background job streams on two cores of each socket of a
// Westmere node while the agent samples the MEM_DP group — core-based
// counting picks up whatever runs on each core, whoever started it, and
// the socket roll-ups show which controller the traffic hits.
//
// Run with: go run ./examples/node-monitoring
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"likwid"
	"likwid/internal/alert"
	"likwid/internal/machine"
	"likwid/internal/monitor"
	"likwid/internal/monitor/cluster"
	"likwid/internal/node"
	"likwid/internal/topology"
)

func main() {
	westmere, err := likwid.Open("westmereEP")
	if err != nil {
		log.Fatal(err)
	}

	// The background job the monitor did not start: streaming tasks
	// pinned to cores 2, 3 (socket 0) and 8, 9 (socket 1).  Each agent
	// tick runs one interval's worth of this work to advance simulated
	// time — the "sleep 1" of the paper replaced by a live node.
	var works []*likwid.ThreadWork
	for _, cpu := range []int{2, 3, 8, 9} {
		t := westmere.Spawn(fmt.Sprintf("background-%d", cpu))
		if err := westmere.M.OS.Pin(t, cpu); err != nil {
			log.Fatal(err)
		}
		works = append(works, &likwid.ThreadWork{
			Task: t,
			PerElem: likwid.PerElem{
				Cycles:       1.0,
				Counts:       machine.Counts{machine.EvInstr: 3, machine.EvFlopsPackedDP: 1},
				MemReadBytes: 16, MemWriteBytes: 8,
				Streams: 3, Vector: true,
			},
		})
	}
	advance := func(dt float64) {
		for _, w := range works {
			w.Elems = 2e7 * dt / 0.05 // ≈ one interval of streaming work
			w.Done = 0
			w.FinishTime = 0
		}
		if elapsed := westmere.M.RunPhase(works, 0); elapsed < dt {
			westmere.M.RunIdle(dt-elapsed, 0)
		}
	}

	// Wire the subsystem: perfgroup collector → aggregator → tiered
	// store + table sink (socket and node scopes only).  The raw ring is
	// kept deliberately tiny here so the retention engine shows its
	// hand: evicted raw points compact into 0.1 s min/median/max/avg
	// buckets instead of vanishing.
	cfg := monitor.Config{
		Machine:   westmere.M,
		MachineMu: new(sync.Mutex),
		Group:     "MEM_DP",
		Interval:  50 * time.Millisecond,
		Advance:   advance,
	}
	col, err := monitor.DefaultRegistry.Build("perfgroup", cfg)
	if err != nil {
		log.Fatal(err)
	}
	info, err := topology.Probe(westmere.M.CPUs, westmere.M.Arch.ClockMHz)
	if err != nil {
		log.Fatal(err)
	}
	store := monitor.NewStore(4, monitor.Tier{Resolution: 0.1, Capacity: 64})
	dispatcher := monitor.NewDispatcher(16, monitor.NewTableSink(os.Stdout, monitor.ScopeSocket, monitor.ScopeNode))
	sched := monitor.NewScheduler(monitor.SchedulerOptions{
		Store:      store,
		Aggregator: monitor.NewAggregator(info, nil),
		Dispatcher: dispatcher,
	})
	sched.Add(col)

	fmt.Printf("continuous monitoring of %s, MEM_DP group, 50 ms interval:\n\n", westmere)
	ctx, cancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer cancel()
	sched.Run(ctx)
	if stopper, ok := col.(interface{ Stop() error }); ok {
		_ = stopper.Stop()
	}
	if err := dispatcher.Close(); err != nil {
		log.Fatal(err)
	}

	// Windowed queries against the tiered store: the stitched window
	// spans downsampled history (bucket averages) plus the raw tail, and
	// the socket bandwidth series shows both controllers carrying the
	// traffic.
	fmt.Println("\nsocket memory-bandwidth series from the store (downsampled + raw):")
	for _, socket := range []int{0, 1} {
		key := monitor.Key{Metric: "memory_bandwidth_mbytes_s", Scope: monitor.ScopeSocket, ID: socket}
		points := store.Window(key, 0, -1)
		fmt.Printf("  socket %d: %d stitched points", socket, len(points))
		if len(points) > 0 {
			last := points[len(points)-1]
			fmt.Printf(", latest %.0f MB/s at t=%.2f s", last.Value, last.Time)
		}
		fmt.Println()
		for _, b := range store.Buckets(key, 0.1, 0, -1) {
			fmt.Printf("    bucket [%.1f,%.1f): n=%d min=%.0f med=%.0f max=%.0f avg=%.0f MB/s\n",
				b.Start, b.End(), b.Count, b.Min, b.Median, b.Max, b.Avg)
		}
	}
	fmt.Println("\nthe busy cores show up in thread-scope series; memory traffic")
	fmt.Println("appears once per socket under the socket lock, the node roll-up")
	fmt.Println("sums both controllers, and history older than the raw ring")
	fmt.Println("survives as min/median/max/avg buckets instead of vanishing.")

	// The alerting layer as a library: rules over the same store.  The
	// first rule is satisfied by the streaming job (bandwidth present),
	// the second watches the paper's imbalance signal; firing and
	// resolved transitions are also recorded as alert/<name> series.
	// likwid-agent runs the same engine from a rule file (-rules,
	// examples/node-monitoring/alerts.rules) with stdout / JSON-lines /
	// webhook notifiers.
	rules, err := alert.ParseRules(`
bw_present: avg(memory_bandwidth_mbytes_s, node, 1s) > 1 for 0s
bw_skew:    imbalance(memory_bandwidth_mbytes_s, socket, 1s) > 0.5 for 0s
`)
	if err != nil {
		log.Fatal(err)
	}
	fanout := alert.NewFanout(16, alert.NewLogNotifier(os.Stdout))
	engine, err := alert.NewEngine(alert.Options{Store: store, Notify: fanout}, rules)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nalert rules over the store ('for 0s': firing on the first true evaluation):")
	engine.EvalNow()
	engine.EvalNow() // continued firing is deduplicated: no second notification
	if err := fanout.Close(); err != nil {
		log.Fatal(err)
	}
	for _, inst := range engine.Alerts() {
		fmt.Printf("  %s: %s (value %.0f vs threshold %.0f)\n",
			inst.Rule, inst.State, inst.Value, inst.Threshold)
	}
	histKey := monitor.Key{Metric: "alert/bw_present", Scope: monitor.ScopeNode, ID: 0}
	if p, ok := store.Latest(histKey); ok {
		fmt.Printf("  history series alert/bw_present: value %.0f at t=%.2f s\n", p.Value, p.Time)
	}

	// ---- labelled two-agent fleet ------------------------------------
	// The structured-label dimension end to end: a receiver stamps the
	// machine-room identity (cluster=emmy) as an ingest default, two
	// "agents" push the same metric labelled with their jobs (the
	// `likwid-agent -labels job=...` stamp), and the merged store slices
	// by label — /query?label.job=lbm — across sources.
	fmt.Println("\nlabelled fleet: two agents, one receiver, sliced by job label:")
	clusterLabel, err := monitor.ParseLabelSpec("cluster=emmy")
	if err != nil {
		log.Fatal(err)
	}
	recv := newReceiver(node.Config{Labels: clusterLabel})
	defer recv.Close()
	for agent, jobSpec := range map[string]string{"nodeA": "job=lbm", "nodeB": "job=ep"} {
		job, err := monitor.ParseLabelSpec(jobSpec)
		if err != nil {
			log.Fatal(err)
		}
		push, err := monitor.NewPushSink(monitor.PushOptions{
			URL: "http://" + recv.Addr() + "/ingest", FlushSamples: 1, Source: agent,
		})
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			_ = push.Write(monitor.Batch{Collector: "perfgroup", Time: float64(i), Samples: []monitor.Sample{
				{Metric: "memory_bandwidth_mbytes_s", Scope: monitor.ScopeNode, ID: 0,
					Labels: job, Time: float64(i), Value: 10000 + float64(len(agent)*i)},
			}})
		}
		if err := push.Close(); err != nil {
			log.Fatal(err)
		}
	}
	resp, err := http.Get("http://" + recv.Addr() + "/query?metric=memory_bandwidth_mbytes_s&scope=node&source=*&label.job=lbm")
	if err != nil {
		log.Fatal(err)
	}
	var sliced struct {
		Series []struct {
			Source string            `json:"source"`
			Labels map[string]string `json:"labels"`
			Points []monitor.Point   `json:"points"`
		} `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sliced); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	for _, s := range sliced.Series {
		fmt.Printf("  label.job=lbm matched source=%s labels=%v with %d points\n",
			s.Source, s.Labels, len(s.Points))
	}
	fmt.Println("  (each agent's job= label survives under the receiver's cluster= default;")
	fmt.Println("   the same selectors work in alert rules: avg(*/bw{job=\"lbm\"}, node, 30s) < ...)")

	// ---- fleet topology: sharded pool + federation tree --------------
	// The cluster layer as a library (the `likwid-agent -sink
	// push:rack1:8090,rack2:8090` / `-receiver ... -forward` wiring): an
	// agent shards its stream over two mid-tier receivers by consistent
	// hash, both forward every accepted batch to a root — the node →
	// rack → cluster tree.  Then one rack dies mid-stream and the pool
	// fails the stranded series over, so the root stays complete.
	fmt.Println("\nfleet topology: agent shards over two receivers, both forwarding to a root:")
	root := newReceiver(node.Config{})
	defer root.Close()
	forward := node.Config{Forward: "push:" + root.Addr()}
	racks := []*node.Node{newReceiver(forward), newReceiver(forward)}

	fleetMetrics := []string{"bw", "flops_dp", "cpi", "energy", "clock", "ipc"}
	pool, err := cluster.New(cluster.Options{
		Targets: []string{"http://" + racks[0].Addr() + "/ingest", "http://" + racks[1].Addr() + "/ingest"},
		Policy:  cluster.PolicyShard, Source: "nodeC", FlushSamples: 1, RetryBase: time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	pushTicks := func(from, to int) {
		for i := from; i < to; i++ {
			samples := make([]monitor.Sample, 0, len(fleetMetrics))
			for _, m := range fleetMetrics {
				samples = append(samples, monitor.Sample{
					Metric: m, Scope: monitor.ScopeNode, ID: 0, Time: float64(i), Value: float64(i),
				})
			}
			_ = pool.Write(monitor.Batch{Collector: "perfgroup", Time: float64(i), Samples: samples})
		}
	}
	countSeries := func(st *monitor.Store) int {
		n := 0
		for _, m := range fleetMetrics {
			if len(st.Window(monitor.Key{Source: "nodeC", Metric: m, Scope: monitor.ScopeNode, ID: 0}, 0, -1)) > 0 {
				n++
			}
		}
		return n
	}
	rootComplete := func(ticks int) bool {
		for _, m := range fleetMetrics {
			k := monitor.Key{Source: "nodeC", Metric: m, Scope: monitor.ScopeNode, ID: 0}
			if len(root.Store().Window(k, 0, -1)) != ticks {
				return false
			}
		}
		return true
	}
	waitRoot := func(ticks int) {
		deadline := time.Now().Add(5 * time.Second)
		for !rootComplete(ticks) && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}

	pushTicks(0, 10) // both racks alive: the ring splits the series
	owned := []int{countSeries(racks[0].Store()), countSeries(racks[1].Store())}
	fmt.Printf("  shard split: rack1 owns %d series, rack2 owns %d of %d\n", owned[0], owned[1], len(fleetMetrics))
	waitRoot(10)
	fmt.Printf("  root window complete after 10 ticks: %v\n", rootComplete(10))

	// The ring hashes the racks' random ports, so the split varies by
	// run: kill the rack that owns more series, so there is always a
	// stream to fail over.
	dead := 0
	if owned[1] > owned[0] {
		dead = 1
	}
	if err := racks[dead].Close(); err != nil { // dies mid-stream; its series fail over
		log.Fatal(err)
	}
	pushTicks(10, 20)
	if err := pool.Close(); err != nil { // graceful drain: flush + reroute
		log.Fatal(err)
	}
	waitRoot(20)
	var failedOver uint64
	for _, ts := range pool.Status() {
		failedOver += ts.Failovers
	}
	fmt.Printf("  rack%d killed mid-stream: %d failover event(s), %d samples dropped\n",
		dead+1, failedOver, pool.Dropped())
	fmt.Printf("  root window still complete at 20 ticks: %v\n", rootComplete(20))
	if err := racks[1-dead].Close(); err != nil {
		log.Fatal(err)
	}

	// ---- durability: surviving a restart -----------------------------
	// With -wal DIR a node journals every append and snapshots its rings
	// and tiers, so a restart — or a crash — resumes with history intact:
	// write through one node, close it, and a second node on the same
	// directory serves the full window again.
	fmt.Println("\ndurability: the store survives a restart (-wal DIR):")
	stateDir, err := os.MkdirTemp("", "likwid-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	durable := node.Config{WALDir: stateDir, SnapshotInterval: time.Minute}
	k := monitor.Key{Metric: "memory_bandwidth_mbytes_s", Scope: monitor.ScopeNode, ID: 0}
	first := newReceiver(durable)
	for i := 0; i < 5; i++ {
		first.Store().Append(k, monitor.Point{Time: float64(i), Value: 20000 + float64(i)})
	}
	if err := first.Close(); err != nil { // the "restart": first life ends
		log.Fatal(err)
	}
	second := newReceiver(durable)
	defer second.Close()
	restored := second.Store().Window(k, 0, -1)
	fmt.Printf("  restored %d of 5 points after restart; newest t=%.0f value=%.0f\n",
		len(restored), restored[len(restored)-1].Time, restored[len(restored)-1].Value)
}

// newReceiver builds a node the way `likwid-agent -receiver
// 127.0.0.1:0` does, on a port the kernel picks, with cfg's other
// settings; it logs warnings only, to keep the walkthrough readable.
func newReceiver(cfg node.Config) *node.Node {
	cfg.Receiver, cfg.Interval, cfg.Buffer, cfg.Retain = "127.0.0.1:0", time.Second, 64, 64
	n, err := node.New(cfg, slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	if err != nil {
		log.Fatal(err)
	}
	return n
}
