package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"likwid"
	"likwid/internal/alert"
	"likwid/internal/derive"
	"likwid/internal/machine"
	"likwid/internal/monitor"
	"likwid/internal/telemetry"
	"likwid/internal/topology"
)

// agentInterval is the simulated sampling period of the agent-node
// workload; the loop is closed on a FakeClock, so it runs as fast as
// the pipeline can absorb ticks.
const agentInterval = 10 * time.Millisecond

var agentCollectors = []string{"perfgroup", "membw", "topology", "features"}

const agentAlertRules = `
bw_low: avg(memory_bandwidth_mbytes_s, socket, 1s) < 1 for 1s
flops_flat: rate(dp_mflops_s, node, 1s) < -1e15 for 1s
`

const agentDeriveRules = `node_bw = sum(memory_bandwidth_mbytes_s, socket) over 1s`

// timedCollector wraps a real collector: it times each Collect and
// remembers the newest raw batch (the aggregate probe replays it).
type timedCollector struct {
	inner monitor.Collector
	env   *agentEnv
	busy  atomic.Int64 // ns inside Collect, Advance callback included
	last  atomic.Pointer[[]monitor.Sample]
}

func (c *timedCollector) Name() string            { return c.inner.Name() }
func (c *timedCollector) Scope() monitor.Scope    { return c.inner.Scope() }
func (c *timedCollector) Interval() time.Duration { return c.inner.Interval() }

// MeanMetrics forwards the aggregation hints the scheduler asks for.
func (c *timedCollector) MeanMetrics() []string {
	if h, ok := c.inner.(monitor.AggregationHinter); ok {
		return h.MeanMetrics()
	}
	return nil
}

func (c *timedCollector) Collect(ctx context.Context) ([]monitor.Sample, error) {
	t0 := time.Now()
	out, err := c.inner.Collect(ctx)
	d := time.Since(t0)
	c.busy.Add(int64(d))
	if len(out) > 0 {
		raw := append([]monitor.Sample(nil), out...)
		c.last.Store(&raw)
	}
	if tr := c.env.cfg.tr; tr != nil && c.env.tick.Load() < agentSpanTicks {
		tr.add(span{Layer: "collectors", Name: "collect", Node: "agent", Trace: c.env.tick.Load(),
			Parent: "sched.tick", Start: t0, Dur: d})
	}
	return out, err
}

// agentSpanTicks bounds how many ticks of a traced agent-node run keep
// their spans (busy totals cover every tick).
const agentSpanTicks = 4000

// timedSink times one text or HTTP sink's writes.
type timedSink struct {
	inner   monitor.Sink
	env     *agentEnv
	stage   string
	busy    atomic.Int64
	samples atomic.Int64
}

func (s *timedSink) Name() string { return s.inner.Name() }
func (s *timedSink) Close() error { return s.inner.Close() }
func (s *timedSink) Write(b monitor.Batch) error {
	t0 := time.Now()
	err := s.inner.Write(b)
	d := time.Since(t0)
	s.busy.Add(int64(d))
	s.samples.Add(int64(len(b.Samples)))
	if tr := s.env.cfg.tr; tr != nil && s.env.tick.Load() < agentSpanTicks {
		tr.add(span{Layer: "sinks", Name: s.stage, Node: "agent", Trace: s.env.tick.Load(),
			Parent: "dispatch.wait", Start: t0, Dur: d})
	}
	return err
}

// countSink is the benchmark's own last sink: when a batch reaches it,
// every sink before it has written that batch.  The tick loop blocks
// on it instead of polling the clock, and it hosts the per-tick
// oracles (constant sample count, socket roll-up = sum of threads).
type countSink struct {
	env     *agentEnv
	done    chan struct{} // one token per batch
	samples atomic.Int64
	// checked on the dispatcher goroutine only:
	keys map[monitor.Key]struct{}
}

func (s *countSink) Name() string { return "count" }
func (s *countSink) Close() error { return nil }
func (s *countSink) Write(b monitor.Batch) error {
	s.samples.Add(int64(len(b.Samples)))
	tick := s.env.tick.Load()
	if tick < 4 {
		for _, sm := range b.Samples {
			s.keys[sm.Key()] = struct{}{}
		}
	}
	if tick%16 == 0 {
		s.env.checkRollup(b)
	}
	s.done <- struct{}{}
	return nil
}

type agentEnv struct {
	cfg   runConfig
	node  *likwid.Node
	clock *monitor.FakeClock
	reg   *telemetry.Registry
	store *monitor.Store
	tiers []monitor.Tier
	agg   *monitor.Aggregator
	http  *monitor.HTTPSink
	disp  *monitor.Dispatcher
	sched *monitor.Scheduler
	cols  []*timedCollector
	sinks []*timedSink
	count *countSink
	alert *alert.Engine
	deriv *derive.Engine
	or    *oracle

	cancel context.CancelFunc
	wg     sync.WaitGroup

	perfSelf    time.Duration // the counter collector's own time over the measured phase
	tick        atomic.Int64
	advanceBusy atomic.Int64 // wall ns inside the benchmark's own load callback
	advanceCPU  atomic.Int64 // CPU ns inside it
	perTick     int64        // samples per tick, fixed by the first tick
	meanMetric  map[string]bool
}

func setupAgentNode(cfg runConfig) (env, error) {
	e := &agentEnv{cfg: cfg, or: &oracle{}, reg: telemetry.New(), clock: monitor.NewFakeClock(), meanMetric: map[string]bool{}}
	node, err := likwid.Open("westmereEP")
	if err != nil {
		return nil, err
	}
	e.node = node
	advance, err := e.streamLoad()
	if err != nil {
		return nil, err
	}
	mcfg := monitor.Config{
		Machine: node.M, MachineMu: new(sync.Mutex), Group: "MEM_DP",
		Interval: agentInterval, Advance: advance,
	}
	if e.tiers, err = monitor.ParseTiers("10s:360,60s:240"); err != nil {
		return nil, err
	}
	e.store = monitor.NewStore(0, e.tiers...)
	e.store.Instrument(e.reg)
	info, err := topology.Probe(node.M.CPUs, node.M.Arch.ClockMHz)
	if err != nil {
		return nil, err
	}
	e.agg = monitor.NewAggregator(info, nil)
	if e.http, err = monitor.NewHTTPSink("127.0.0.1:0", e.store); err != nil {
		return nil, err
	}
	e.http.Instrument(e.reg)
	e.count = &countSink{env: e, done: make(chan struct{}, 64), keys: map[monitor.Key]struct{}{}}
	e.sinks = []*timedSink{
		{inner: e.http, env: e, stage: "http_latest"},
		{inner: monitor.NewJSONLSink(io.Discard, nil), env: e, stage: "jsonl"},
		{inner: monitor.NewCSVSink(io.Discard, nil), env: e, stage: "csv"},
	}
	e.disp = monitor.NewDispatcher(64, e.sinks[0], e.sinks[1], e.sinks[2], e.count)
	e.disp.Instrument(e.reg)
	e.sched = monitor.NewScheduler(monitor.SchedulerOptions{
		Clock: e.clock, Store: e.store, Aggregator: e.agg, Dispatcher: e.disp, Telemetry: e.reg,
	})
	for _, name := range agentCollectors {
		c, err := monitor.DefaultRegistry.Build(name, mcfg)
		if err != nil {
			e.close()
			return nil, err
		}
		tc := &timedCollector{inner: c, env: e}
		for _, m := range tc.MeanMetrics() {
			e.meanMetric[m] = true
		}
		e.cols = append(e.cols, tc)
		e.sched.Add(tc)
	}
	arules, err := alert.ParseRules(agentAlertRules)
	if err != nil {
		return nil, err
	}
	if e.alert, err = alert.NewEngine(alert.Options{Store: e.store, Clock: e.clock, Telemetry: e.reg}, arules); err != nil {
		return nil, err
	}
	drules, _, err := derive.ParseFile(agentDeriveRules)
	if err != nil {
		return nil, err
	}
	if e.deriv, err = derive.NewEngine(derive.Options{Store: e.store, Clock: e.clock, Telemetry: e.reg}, drules); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.sched.Run(ctx)
	}()
	// The first tick creates every series; it belongs to set-up.
	e.tick.Store(0)
	if _, err := e.oneTick(); err != nil {
		e.close()
		return nil, err
	}
	e.perTick = e.count.samples.Load()
	return e, nil
}

// streamLoad is the benchmark's own workload on the simulated node:
// two streaming tasks per socket, one interval of work per tick.  Its
// time is the monitored application's, not the agent's, so it is timed
// here and subtracted from every agent cost: its wall time from the
// tick's, its CPU time from the process's.
func (e *agentEnv) streamLoad() (func(dt float64), error) {
	m := e.node.M
	var works []*machine.ThreadWork
	perElem := machine.PerElem{
		Cycles: 1.0,
		Counts: machine.Counts{
			machine.EvInstr: 3, machine.EvFlopsPackedDP: 1,
			machine.EvLoads: 2, machine.EvStores: 1,
		},
		MemReadBytes: 16, MemWriteBytes: 8, Streams: 3, Vector: true,
	}
	perSocket := map[int]int{}
	for cpu := 0; cpu < m.OS.NumCPUs(); cpu++ {
		s := m.SocketOf(cpu)
		if perSocket[s] >= 2 {
			continue
		}
		perSocket[s]++
		task := m.OS.Spawn(fmt.Sprintf("bench-load-%d", cpu), nil)
		if err := m.OS.Pin(task, cpu); err != nil {
			return nil, err
		}
		works = append(works, &machine.ThreadWork{Task: task, PerElem: perElem})
	}
	return func(dt float64) {
		t0, c0 := time.Now(), threadCPU()
		for _, w := range works {
			w.Elems = 2e7 * dt / 0.05
			w.Done = 0
			w.FinishTime = 0
		}
		if elapsed := m.RunPhase(works, 0); elapsed < dt {
			m.RunIdle(dt-elapsed, 0)
		}
		wall := time.Since(t0)
		// The callback neither blocks nor runs long enough to be preempted,
		// so it all but always ends on the thread it began on; when it did
		// not, the two readings are of different clocks and the wall time
		// stands in.
		cpu := threadCPU() - c0
		if cpu <= 0 || cpu > wall {
			cpu = wall
		}
		e.advanceBusy.Add(int64(wall))
		e.advanceCPU.Add(int64(cpu))
	}, nil
}

// oneTick advances the fake clock by one interval and blocks until the
// counting sink has seen every collector's batch, i.e. every sink has
// written all of them.  It returns the tick's wall time.
func (e *agentEnv) oneTick() (time.Duration, error) {
	// Every collector goroutine must have re-armed its timer, or the
	// Advance fires nothing for it.  Re-arming follows Publish at once,
	// so this loop is normally already satisfied.
	for spins := 0; e.clock.Waiters() < len(e.cols); spins++ {
		if spins > 5_000_000 {
			return 0, fmt.Errorf("collectors never re-armed (%d of %d waiting)", e.clock.Waiters(), len(e.cols))
		}
		runtime.Gosched()
	}
	t0 := time.Now()
	e.clock.Advance(agentInterval)
	timeout := time.After(10 * time.Second)
	for i := 0; i < len(e.cols); i++ {
		select {
		case <-e.count.done:
		case <-timeout:
			return 0, fmt.Errorf("tick %d: only %d of %d batches reached the last sink", e.tick.Load(), i, len(e.cols))
		}
	}
	return time.Since(t0), nil
}

// checkRollup is the aggregation oracle: within one batch, each
// socket-scope roll-up equals the sum (or mean) of its threads.
func (e *agentEnv) checkRollup(b monitor.Batch) {
	type acc struct {
		sum float64
		n   int
	}
	threads := map[string]map[int]*acc{}
	for _, s := range b.Samples {
		if s.Scope != monitor.ScopeThread {
			continue
		}
		m := threads[s.Metric]
		if m == nil {
			m = map[int]*acc{}
			threads[s.Metric] = m
		}
		sock := e.node.M.SocketOf(s.ID)
		if m[sock] == nil {
			m[sock] = &acc{}
		}
		m[sock].sum += s.Value
		m[sock].n++
	}
	for _, s := range b.Samples {
		if s.Scope != monitor.ScopeSocket {
			continue
		}
		a := threads[s.Metric][s.ID]
		if a == nil {
			continue // a socket-native (uncore) sample, not a roll-up
		}
		want := a.sum
		if e.meanMetric[s.Metric] {
			want /= float64(a.n)
		}
		if diff := math.Abs(s.Value - want); diff > 1e-9*math.Max(1, math.Abs(want)) {
			e.or.failf("tick %d: socket %d roll-up of %s is %v, its threads give %v", e.tick.Load(), s.ID, s.Metric, s.Value, want)
		}
	}
}

func (e *agentEnv) oracle() *oracle { return e.or }

func (e *agentEnv) terminal() terminal {
	return terminal{store: e.store, addr: e.http.Addr(), lines: len(e.count.keys)}
}

func (e *agentEnv) close() {
	if e.cancel != nil {
		e.cancel()
		e.wg.Wait()
		e.cancel = nil
	}
	for _, c := range e.cols {
		if s, ok := c.inner.(interface{ Stop() error }); ok {
			_ = s.Stop()
		}
	}
	if e.disp != nil {
		_ = e.disp.Close() // closes the HTTP sink with it
		e.disp = nil
	} else if e.http != nil {
		_ = e.http.Close()
	}
}

func (e *agentEnv) main(cfg runConfig) (*mainStats, error) {
	maxTicks := 0
	if cfg.short {
		maxTicks = 40
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	colBusy0 := e.cols[0].busy.Load()
	adv0, advWall0 := e.advanceCPU.Load(), e.advanceBusy.Load()
	count0 := e.count.samples.Load()
	var sched0 uint64
	for _, st := range e.sched.Stats() {
		sched0 += st.Samples
	}
	var alertNs, deriveNs time.Duration
	ms := &mainStats{}
	t0, cpu0 := time.Now(), cpuTime()
	var m0 memCounters
	m0.read()
	sampler := startSampler(250*time.Millisecond, e.count.samples.Load,
		func() time.Duration { return time.Duration(e.advanceCPU.Load()) })
	ticks := 0
	for ; (maxTicks > 0 && ticks < maxTicks) || (maxTicks == 0 && time.Now().Before(deadline)); ticks++ {
		e.tick.Store(int64(ticks + 1))
		before := e.count.samples.Load()
		a0 := e.advanceBusy.Load()
		d, err := e.oneTick()
		if err != nil {
			return nil, err
		}
		adv := time.Duration(e.advanceBusy.Load() - a0)
		ms.freshMs = append(ms.freshMs, float64(d)/1e6)
		ms.tickUs = append(ms.tickUs, float64(d-adv)/1e3)
		if got := e.count.samples.Load() - before; got != e.perTick {
			e.or.failf("tick %d delivered %d samples, every tick before it %d", ticks+1, got, e.perTick)
		}
		t1 := time.Now()
		e.alert.EvalNow()
		t2 := time.Now()
		e.deriv.EvalNow()
		t3 := time.Now()
		alertNs += t2.Sub(t1)
		deriveNs += t3.Sub(t2)
		if cfg.tr != nil && ticks < agentSpanTicks {
			cfg.tr.add(span{Layer: "sched", Name: "tick", Node: "agent", Trace: int64(ticks + 1), Start: t1.Add(-d), Dur: d})
			cfg.tr.add(span{Layer: "alert", Name: "eval", Node: "agent", Trace: int64(ticks + 1), Start: t1, Dur: t2.Sub(t1)})
			cfg.tr.add(span{Layer: "derive", Name: "eval", Node: "agent", Trace: int64(ticks + 1), Start: t2, Dur: t3.Sub(t2)})
		}
	}
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	ms.cpuUsWin, ms.rateWin = sampler.stop()
	var m1 memCounters
	m1.read()
	adv := time.Duration(e.advanceCPU.Load() - adv0)
	ms.wall, ms.cpu, ms.mem = wall, cpu-adv, m1.sub(m0)
	ms.samples = e.count.samples.Load() - count0
	var sched1 uint64
	for _, st := range e.sched.Stats() {
		sched1 += st.Samples
	}
	ms.generated = int64(sched1 - sched0)
	ms.delivered = ms.samples
	ms.attempted = ms.generated
	ms.failed = ms.generated - ms.delivered
	ms.dispDropped = int64(e.disp.Dropped())
	e.or.check(e.disp.Dropped() == 0, "dispatcher dropped %d batches in a closed loop", e.disp.Dropped())

	// Only the counter collector's own time is read off its Collect
	// spans (less the load callback it hosts): the static collectors
	// spend theirs queueing for the machine mutex it holds, so their
	// cost is probed uncontended in probes.
	e.perfSelf = time.Duration(e.cols[0].busy.Load()-colBusy0) - time.Duration(e.advanceBusy.Load()-advWall0)
	ms.layer = map[string]float64{
		"collectors.collect_us":       float64(e.perfSelf) / 1e3 / float64(ticks),
		"collectors.samples_per_tick": float64(e.perTick),
		"alert.eval_us":               float64(alertNs) / 1e3 / float64(ticks),
		"derive.eval_us":              float64(deriveNs) / 1e3 / float64(ticks),
		"agent.tick_p99_us":           quantile(ms.tickUs, 0.99),
		"dispatch.dropped_batches":    float64(e.disp.Dropped()),
		"proc.generator_cpu_frac":     float64(adv) / float64(cpu),
	}
	for _, s := range e.sinks {
		if n := s.samples.Load(); n > 0 {
			ms.layer["sinks."+s.stage+"_us_per_sample"] = float64(s.busy.Load()) / 1e3 / float64(n)
		}
		cfg.tr.addBusy("sinks", time.Duration(s.busy.Load()))
	}
	cfg.tr.addBusy("alert", alertNs)
	cfg.tr.addBusy("derive", deriveNs)
	return ms, nil
}

func (e *agentEnv) probes(cfg runConfig, ms *mainStats) {
	l := ms.layer
	ticks := float64(len(ms.tickUs))
	// collectors: the static ones, called directly with the mutex free.
	static := 0.0
	for _, c := range e.cols[1:] {
		static += timeOp(func() { _, _ = c.inner.Collect(context.Background()) })
	}
	l["collectors.collect_us"] += static / 1e3
	cfg.tr.addBusy("collectors", e.perfSelf+time.Duration(static*ticks))
	// aggregate: replay the newest raw perfgroup batch through Rollup.
	if raw := e.cols[0].last.Load(); raw != nil {
		l["aggregate.rollup_us"] = timeOp(func() { _ = e.agg.Rollup(*raw) }) / 1e3
		cfg.tr.addBusy("aggregate", time.Duration(l["aggregate.rollup_us"]*1e3*ticks))
	}
	// store: one tick's worth of samples into a scratch store.
	var tickBatch []monitor.Sample
	for _, c := range e.cols {
		if raw := c.last.Load(); raw != nil {
			tickBatch = append(tickBatch, *raw...)
		}
	}
	plain, _, _ := probeAppend(cfg.dir+"/probe-wal", tickBatch)
	l["store.append_ns_per_sample"] = plain
	l["store.tier_compact_ns_per_sample"] = probeTier(e.tiers)
	cfg.tr.addBusy("store", time.Duration((plain+l["store.tier_compact_ns_per_sample"])*float64(ms.samples)))
	l["telemetry.snapshot_us"], l["telemetry.self_collect_us"] = probeTelemetry(e.reg)
	l["alert.resolve_hit_frac"] = hitFrac(e.reg, "likwid_alert_resolve_total")
	l["derive.resolve_hit_frac"] = hitFrac(e.reg, "likwid_derive_resolve_total")
}

// hitFrac reads a {result=hit|cold} counter pair as hit / (hit + cold).
func hitFrac(reg *telemetry.Registry, name string) float64 {
	var hit, cold float64
	for _, m := range reg.Snapshot().Metrics {
		if m.Name != name {
			continue
		}
		switch m.Labels["result"] {
		case "hit":
			hit += m.Value
		case "cold":
			cold += m.Value
		}
	}
	if hit+cold == 0 {
		return 0
	}
	return hit / (hit + cold)
}
