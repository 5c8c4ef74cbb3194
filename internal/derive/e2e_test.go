package derive

// End-to-end proof that derived series are first-class: ingest routes
// retag pushed samples, a recorded rule rolls them up, the alert engine
// fires on the derived metric, /query serves tier-stitched derived
// history after raw eviction, the WAL replays derived appends across a
// simulated crash, and a derive engine's dispatcher ships derived
// samples over the v4 binary wire to a receiver.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"likwid/internal/alert"
	"likwid/internal/monitor"
	"likwid/internal/monitor/memnet"
	"likwid/internal/monitor/persist"
	"likwid/internal/telemetry"
)

// capturePublisher records alert events (the derive package's own view
// of an alert sink; the alert package has an identical internal one).
type capturePublisher struct {
	mu     sync.Mutex
	events []alert.Event
}

func (c *capturePublisher) Publish(ev alert.Event) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
	return true
}

func (c *capturePublisher) snapshot() []alert.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]alert.Event(nil), c.events...)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestE2EDerivedPipeline walks the full receiver path under -race:
// three agents push a legacy metric name, ingest routes rename and
// relabel it, a recorded rule rolls the fleet up into cluster_bw, an
// alert fires on the derived metric, and /query returns tier-stitched
// derived history after the raw ring evicted the early points.
func TestE2EDerivedPipeline(t *testing.T) {
	store := monitor.NewStore(8, monitor.Tier{Resolution: 4, Capacity: 64})
	recv := newReceiver(t, store)

	// Ingest routing: the fleet still pushes the legacy name; the
	// receiver renames it and tags the job before interning.
	_, routes, err := ParseFile(`
route rename */bw_legacy -> bw
route relabel */bw set job="lbm"
`)
	if err != nil {
		t.Fatal(err)
	}
	recv.SetRouter(monitor.NewRouter(routes))

	rules, _, err := ParseFile(`cluster_bw = sum(bw{job="lbm"}) over 8s every 4s`)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(Options{Store: store, Clock: monitor.NewFakeClock()}, rules)
	if err != nil {
		t.Fatal(err)
	}
	recv.Handle("/derive", StatusHandler(eng, func() []monitor.RouteStatus {
		return recv.Router().Statuses()
	}))

	base := "http://" + recv.Addr()
	nodes := []struct {
		name  string
		value float64
	}{{"nodeA", 10}, {"nodeB", 20}, {"nodeC", 30}}
	pushers := make([]*monitor.PushSink, len(nodes))
	for i, n := range nodes {
		p, err := monitor.NewPushSink(monitor.PushOptions{
			URL: base + "/ingest", Client: testClient, FlushSamples: 1,
			RetryBase: time.Millisecond, Source: n.name,
		})
		if err != nil {
			t.Fatal(err)
		}
		pushers[i] = p
	}

	// 24 ticks at 4 s spacing: far more than the 8-point raw ring, so
	// the early derived history survives only in the 4 s tier.  The
	// derive engine evaluates after each tick lands (its dedupe guard
	// keys on the inputs' newest time, so one eval per tick emits one
	// derived point per tick).
	const ticks = 24
	storedKey := func(n string) monitor.Key {
		labels, err := monitor.MakeLabels(map[string]string{"job": "lbm"})
		if err != nil {
			t.Fatal(err)
		}
		return monitor.Key{Source: n, Metric: "bw", Scope: monitor.ScopeNode, Labels: labels}
	}
	for tick := 0; tick < ticks; tick++ {
		tm := float64(tick * 4)
		for i, n := range nodes {
			err := pushers[i].Write(monitor.Batch{Collector: "bench", Time: tm, Samples: []monitor.Sample{{
				Metric: "bw_legacy", Scope: monitor.ScopeNode, Time: tm, Value: n.value,
			}}})
			if err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, fmt.Sprintf("tick %d ingested", tick), func() bool {
			for _, n := range nodes {
				if p, ok := store.Latest(storedKey(n.name)); !ok || p.Time < tm {
					return false
				}
			}
			return true
		})
		eng.EvalNow()
	}
	for _, p := range pushers {
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Routing proof: the legacy name never reached the store.
	for _, k := range store.Keys() {
		if k.Metric == "bw_legacy" {
			t.Fatalf("route rename leaked the legacy metric: %+v", k)
		}
	}

	// Every tick's roll-up is sum of per-node window means = 60.
	derived := monitor.Key{Metric: "cluster_bw", Scope: monitor.ScopeNode}
	if got := store.Len(derived); got != 8 {
		t.Fatalf("derived raw ring holds %d points, want 8 (eviction)", got)
	}

	// The alert engine fires on the derived series like any other.
	pub := &capturePublisher{}
	ar, err := alert.ParseRule("cluster_bw_low: avg(cluster_bw, node, 30s) < 100 for 0s", 1)
	if err != nil {
		t.Fatal(err)
	}
	ae, err := alert.NewEngine(alert.Options{
		Store: store, Clock: monitor.NewFakeClock(), Notify: pub,
	}, []*alert.Rule{ar})
	if err != nil {
		t.Fatal(err)
	}
	ae.EvalNow()
	evs := pub.snapshot()
	if len(evs) != 1 || evs[0].Metric != "cluster_bw" || evs[0].State != alert.EventStateFiring {
		t.Fatalf("alert on derived metric = %+v, want one firing cluster_bw event", evs)
	}

	// /query stitches tier history under the raw ring: all 24 derived
	// points come back even though the ring holds only 8.
	var qr struct {
		Points []monitor.Point `json:"points"`
	}
	getJSON(t, base+"/query?metric=cluster_bw&source=", &qr)
	if len(qr.Points) != ticks {
		t.Fatalf("stitched derived window = %d points, want %d", len(qr.Points), ticks)
	}
	if qr.Points[0].Time != 0 || qr.Points[0].Value != 60 {
		t.Fatalf("oldest stitched point = %+v, want time 0 value 60 (tier bucket)", qr.Points[0])
	}
	if last := qr.Points[len(qr.Points)-1]; last.Time != float64((ticks-1)*4) || last.Value != 60 {
		t.Fatalf("newest stitched point = %+v", last)
	}

	// Metric wildcard composes with label selection: job=lbm slices the
	// three collected series; the (unlabelled) derived one stays out.
	var sr struct {
		Series []struct {
			Source string `json:"source"`
			Metric string `json:"metric"`
		} `json:"series"`
	}
	getJSON(t, base+"/query?metric=*&label.job=lbm", &sr)
	if len(sr.Series) != 3 {
		t.Fatalf("metric=*&label.job=lbm matched %d series, want 3: %+v", len(sr.Series), sr.Series)
	}
	for _, s := range sr.Series {
		if s.Metric != "bw" {
			t.Fatalf("label slice matched unexpected metric %q", s.Metric)
		}
	}

	// /derive reports both halves of the subsystem.
	var ds struct {
		Rules []struct {
			Name    string `json:"name"`
			Emitted uint64 `json:"emitted"`
		} `json:"rules"`
		Routes []monitor.RouteStatus `json:"routes"`
	}
	getJSON(t, base+"/derive", &ds)
	if len(ds.Rules) != 1 || ds.Rules[0].Name != "cluster_bw" || ds.Rules[0].Emitted != ticks {
		t.Fatalf("/derive rules = %+v, want cluster_bw with %d emitted", ds.Rules, ticks)
	}
	if len(ds.Routes) != 2 || ds.Routes[0].Matched == 0 {
		t.Fatalf("/derive routes = %+v, want 2 with matches", ds.Routes)
	}
}

// testNet carries the package's receivers; testClient dials them, so
// no test takes a kernel port.
var (
	testNet    = memnet.New()
	testClient = testNet.Client()
)

// newReceiver serves a monitor HTTP sink over store on a fresh testNet
// host until the test ends.
func newReceiver(t *testing.T, store *monitor.Store) *monitor.HTTPSink {
	t.Helper()
	ln, err := testNet.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	h, err := monitor.ServeHTTPSink(ln, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// countWALPoints counts the journaled points in the whole CRC-framed
// frames of a WAL file (each payload one v4 column-group batch) — a
// read-only mirror of the persist package's framing, so the test can
// wait for appends to be durable before "crashing".
func countWALPoints(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for len(b) >= 8 {
		size := binary.LittleEndian.Uint32(b[0:4])
		sum := binary.LittleEndian.Uint32(b[4:8])
		if len(b) < 8+int(size) {
			break
		}
		if crc32.ChecksumIEEE(b[8:8+size]) != sum {
			break
		}
		samples, err := monitor.DecodeV4Samples(b[8:8+size], nil)
		if err != nil {
			t.Fatalf("WAL frame is not a v4 batch: %v", err)
		}
		n += len(samples)
		b = b[8+size:]
	}
	return n
}

// TestE2EWALReplayRestoresDerived proves derived appends are as durable
// as collected ones: the manager is never closed (no snapshot), so the
// reopened store gets the derived series purely from WAL replay.
func TestE2EWALReplayRestoresDerived(t *testing.T) {
	dir := t.TempDir()
	st := monitor.NewStore(8, monitor.Tier{Resolution: 1, Capacity: 16})
	m, err := persist.Open(dir, st, persist.Options{
		SnapshotInterval: time.Hour, Registry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 6; i++ {
		tm := float64(i)
		st.Append(monitor.Key{Source: "nodeA", Metric: "bw", Scope: monitor.ScopeNode},
			monitor.Point{Time: tm, Value: 10})
		st.Append(monitor.Key{Source: "nodeB", Metric: "bw", Scope: monitor.ScopeNode},
			monitor.Point{Time: tm, Value: 20})
	}
	eng := newTestEngine(t, st, mustRule(t, `cluster_bw = sum(bw) over 10s`))
	eng.EvalNow()

	derived := monitor.Key{Metric: "cluster_bw", Scope: monitor.ScopeNode}
	want := st.Window(derived, 0, -1)
	if len(want) != 1 || want[0].Value != 30 {
		t.Fatalf("derived before crash = %+v, want one point of 30", want)
	}

	// 12 collected + 1 derived appends; wait until all 13 are framed in
	// the WAL, then "crash" by never closing the manager.
	walPath := filepath.Join(dir, "wal.log")
	waitFor(t, "13 WAL points", func() bool { return countWALPoints(t, walPath) >= 13 })

	st2 := monitor.NewStore(8, monitor.Tier{Resolution: 1, Capacity: 16})
	m2, err := persist.Open(dir, st2, persist.Options{Registry: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := st2.Window(derived, 0, -1); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed derived series = %+v, want %+v", got, want)
	}
	_ = m // keep the crashed manager alive past the reopen
}

// TestE2EDerivedShipsOverPushV4 proves a derive engine's dispatcher
// output rides the binary columnar wire like any collector batch: an
// agent-side roll-up lands in the receiver's store under the agent's
// source identity.
func TestE2EDerivedShipsOverPushV4(t *testing.T) {
	recvStore := monitor.NewStore(64)
	recv := newReceiver(t, recvStore)

	agentStore := monitor.NewStore(64)
	for i := 0; i < 4; i++ {
		agentStore.Append(monitor.Key{Metric: "flops_dp", Scope: monitor.ScopeNode},
			monitor.Point{Time: float64(i * 10), Value: 100})
	}

	push, err := monitor.NewPushSink(monitor.PushOptions{
		URL: "http://" + recv.Addr() + "/ingest", Client: testClient, FlushSamples: 1,
		RetryBase: time.Millisecond, Source: "agent1", Format: monitor.WireV4,
	})
	if err != nil {
		t.Fatal(err)
	}
	dispatch := monitor.NewDispatcher(16, push)
	eng, err := NewEngine(Options{
		Store: agentStore, Clock: monitor.NewFakeClock(), Dispatcher: dispatch,
	}, []*Rule{mustRule(t, `node_flops = avg(flops_dp) over 40s`)})
	if err != nil {
		t.Fatal(err)
	}
	eng.EvalNow()
	if err := dispatch.Close(); err != nil { // drains the queue, flushes the push sink
		t.Fatal(err)
	}

	// The derived sample was sourceless on the agent; the push sink
	// stamps its source, so the receiver files it under agent1.
	shipped := monitor.Key{Source: "agent1", Metric: "node_flops", Scope: monitor.ScopeNode}
	waitFor(t, "derived sample over pushv4", func() bool {
		p, ok := recvStore.Latest(shipped)
		return ok && p.Time == 30 && p.Value == 100
	})
}
