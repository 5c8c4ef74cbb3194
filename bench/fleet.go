package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/monitor/cluster"
	"likwid/internal/monitor/persist"
	"likwid/internal/telemetry"
)

// tickSeconds is the fleet's simulated and real sampling period.
const tickSeconds = 0.05

const tickInterval = 50 * time.Millisecond

// fleetShape sizes one fleet.
type fleetShape struct {
	agents    int
	receivers int
	metrics   int // per agent
	ids       int // thread ids per metric
	// flushSamples is the wiring value the fleet workloads differ in:
	// steady keeps the push sink's default flush threshold (0: every
	// wide batch ships at once), catch-up batches 2048 samples per POST.
	flushSamples int
	storeCap     int
}

func (s fleetShape) seriesPerAgent() int { return s.metrics * s.ids }

// recvNode is one receiver: store + WAL + /ingest, optionally
// forwarding upstream.  The root is a recvNode without WAL or forward.
type recvNode struct {
	name  string
	reg   *telemetry.Registry
	store *monitor.Store
	http  *monitor.HTTPSink
	pm    *persist.Manager
	dir   string

	fwdSink *cluster.Sink
	fwdDisp *monitor.Dispatcher
	tp      *benchTransport

	// hookAt remembers when each journey's batch was accepted here, so
	// the hop-2 transport can report forward.wait (traced runs only).
	hookMu   sync.Mutex
	hookAt   map[int64]time.Time
	fwdWaits []float64 // ms
}

// agentNode is one pushing agent.
type agentNode struct {
	name  string
	idx   int
	reg   *telemetry.Registry
	store *monitor.Store
	sink  *cluster.Sink
	wsink *spanSink
	disp  *monitor.Dispatcher
	tp    *benchTransport
	col   *synthCollector

	tmpl []monitor.Sample // one wide batch, Time and Value unset
}

// fleet is the whole topology: agents → shard pool of receivers (WAL)
// → failover forward → root.
type fleet struct {
	cfg    runConfig
	shape  fleetShape
	hosts  *hostMap
	root   *recvNode
	recvs  []*recvNode
	agents []*agentNode
	obs    *fleetObserver
	gen    []*seriesGen // per agent
	hop1   *hopStats
	hop2   *hopStats
	or     *oracle

	primeTicks int
	closed     bool
}

func traceID(agent, tick int) int64 { return int64(agent)<<32 | int64(uint32(tick)) }

func tickOf(t float64) int { return int(math.Round(t/tickSeconds)) - 1 }

func timeOf(tick int) float64 { return float64(tick+1) * tickSeconds }

// ---- observer: the far end of the journey ---------------------------------

// arrival is one sampled (agent, tick) landing at the root.
type arrival struct {
	agent, tick int
	at          time.Time
}

// fleetObserver sits in the root's SetForward hook.  It is both the
// end-to-end clock (when did this tick become queryable at the root)
// and the oracle: every generated (source, series, tick) must arrive
// exactly once carrying the generator's value.
type fleetObserver struct {
	mu        sync.Mutex
	agentOf   map[string]int
	seriesIdx []map[monitor.Key]int32 // per agent; key without Source
	gens      []*seriesGen
	nSeries   int
	seen      [][]uint64 // per agent bitmap over tick*nSeries+series
	distinct  int64
	dups      int64
	badValue  int64
	foreign   int64
	total     int64
	measured  int64 // arrivals with tick >= measureFrom
	// measuredNow mirrors measured for the window sampler, which must
	// not queue behind the hook's lock; acceptedBy counts per agent for
	// the catch-up writers' flow control.
	measuredNow atomic.Int64
	acceptedBy  []atomic.Int64
	// measureFrom is the first measured tick; earlier ticks are prime
	// and warm-up.  arrivalEvery thins the freshness sample on deep
	// batches (1 = every tick).
	measureFrom  int
	arrivalEvery int
	arrivals     []arrival
	last         time.Time
}

func (o *fleetObserver) hook(b monitor.Batch) {
	now := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	firstSeries := int32(-1)
	for _, s := range b.Samples {
		a, ok := o.agentOf[s.Source]
		if !ok {
			o.foreign++
			continue
		}
		k := s.Key()
		k.Source = ""
		idx, ok := o.seriesIdx[a][k]
		tick := tickOf(s.Time)
		if !ok || tick < 0 {
			o.foreign++
			continue
		}
		o.total++
		o.acceptedBy[a].Add(1)
		if s.Value != o.gens[a].value(int(idx), tick) {
			o.badValue++
		}
		bit := tick*o.nSeries + int(idx)
		word := bit >> 6
		for word >= len(o.seen[a]) {
			o.seen[a] = append(o.seen[a], make([]uint64, 1+len(o.seen[a]))...)
		}
		mask := uint64(1) << (uint(bit) & 63)
		if o.seen[a][word]&mask != 0 {
			o.dups++
		} else {
			o.seen[a][word] |= mask
			o.distinct++
		}
		if tick >= o.measureFrom {
			o.measured++
			o.measuredNow.Add(1)
		}
		if firstSeries < 0 {
			firstSeries = idx
		}
		if idx == firstSeries && tick >= o.measureFrom && tick%o.arrivalEvery == 0 {
			o.arrivals = append(o.arrivals, arrival{agent: a, tick: tick, at: now})
		}
	}
	o.last = now
}

func (o *fleetObserver) counts() (distinct, total, measured int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.distinct, o.total, o.measured
}

// ---- synthetic collector --------------------------------------------------

// synthCollector is the fleet's metric source: one wide batch per tick
// built from a prebuilt template, so generating costs a copy and one
// multiply-add per series.  It records when each Collect started and
// returned; every stage after it is timed against those.
type synthCollector struct {
	agent *agentNode
	gen   *seriesGen
	next  int // next tick to emit
	stop  int // first tick not to emit

	warmTick int
	warmed   chan struct{}
	finished chan struct{}

	startAt []time.Time // indexed by tick - first
	endAt   []time.Time
	first   int
	genBusy time.Duration
}

func (c *synthCollector) Name() string            { return "synth" }
func (c *synthCollector) Scope() monitor.Scope    { return monitor.ScopeThread }
func (c *synthCollector) Interval() time.Duration { return tickInterval }

func (c *synthCollector) Collect(context.Context) ([]monitor.Sample, error) {
	start := time.Now()
	if c.next >= c.stop {
		return nil, nil
	}
	tick := c.next
	c.next++
	out := c.agent.batch(c.gen, tick)
	end := time.Now()
	c.startAt = append(c.startAt, start)
	c.endAt = append(c.endAt, end)
	c.genBusy += end.Sub(start)
	if tick == c.warmTick {
		close(c.warmed)
	}
	if c.next == c.stop {
		close(c.finished)
	}
	return out, nil
}

// batch builds tick's wide batch for this agent.
func (a *agentNode) batch(gen *seriesGen, tick int) []monitor.Sample {
	out := make([]monitor.Sample, len(a.tmpl))
	copy(out, a.tmpl)
	t := timeOf(tick)
	for i := range out {
		out[i].Time = t
		out[i].Value = gen.value(i, tick)
	}
	return out
}

// ---- construction ---------------------------------------------------------

var fleetJobs = []string{"lbm", "stream", "jacobi", "hpl"}

func newFleet(cfg runConfig, shape fleetShape) (*fleet, error) {
	f := &fleet{
		cfg: cfg, shape: shape, hosts: &hostMap{},
		hop1: &hopStats{}, hop2: &hopStats{}, or: &oracle{},
	}
	f.obs = &fleetObserver{
		agentOf: map[string]int{}, nSeries: shape.seriesPerAgent(),
		arrivalEvery: 1, measureFrom: math.MaxInt32,
		acceptedBy: make([]atomic.Int64, shape.agents),
	}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()

	root, err := f.newRecv("root", "", nil)
	if err != nil {
		return nil, err
	}
	f.root = root
	root.http.SetForward(f.obs.hook)
	for i := 0; i < shape.receivers; i++ {
		name := fmt.Sprintf("recv%d", i)
		r, err := f.newRecv(name, filepath.Join(cfg.dir, name), []string{"http://root.bench:80/ingest"})
		if err != nil {
			return nil, err
		}
		f.recvs = append(f.recvs, r)
	}
	targets := make([]string, len(f.recvs))
	for i, r := range f.recvs {
		targets[i] = "http://" + r.name + ".bench:80/ingest"
	}
	for i := 0; i < shape.agents; i++ {
		a, err := f.newAgent(i, targets)
		if err != nil {
			return nil, err
		}
		f.agents = append(f.agents, a)
	}
	if err := f.prime(); err != nil {
		return nil, err
	}
	ok = true
	return f, nil
}

// newRecv builds one receiver.  dir == "" means no WAL (the root);
// forwardTo == nil means no forward hop.
func (f *fleet) newRecv(name, dir string, forwardTo []string) (*recvNode, error) {
	r := &recvNode{name: name, reg: telemetry.New(), dir: dir, hookAt: map[int64]time.Time{}}
	r.store = monitor.NewStore(f.shape.storeCap)
	r.store.Instrument(r.reg)
	if dir != "" {
		pm, err := persist.Open(dir, r.store, persist.Options{
			SnapshotInterval: time.Hour, // never inside a run
			Registry:         r.reg,
		})
		if err != nil {
			return nil, err
		}
		r.pm = pm
	}
	h, err := monitor.NewHTTPSink("127.0.0.1:0", r.store)
	if err != nil {
		return nil, err
	}
	r.http = h
	h.Instrument(r.reg)
	f.hosts.set(name+".bench:80", h.Addr())
	if forwardTo == nil {
		return r, nil
	}
	r.tp = newTransport(f.hosts, f.hop2, f.cfg.tr, name, "forward")
	recv := r
	r.tp.onStart = func(trace int64, at time.Time) {
		recv.hookMu.Lock()
		if t0, ok := recv.hookAt[trace]; ok {
			recv.fwdWaits = append(recv.fwdWaits, float64(at.Sub(t0))/1e6)
			delete(recv.hookAt, trace)
		}
		recv.hookMu.Unlock()
	}
	client := &http.Client{Transport: r.tp, Timeout: 10 * time.Second}
	fs, err := cluster.New(cluster.Options{
		Targets: forwardTo,
		Policy:  cluster.PolicyFailover,
		Format:  monitor.WireV4,
		Source:  name,
		// The agent already batched: re-push each accepted batch as it
		// arrives, exactly as likwid-agent -forward wires it.
		FlushSamples: 1,
		Client:       client,
		ProbeClient:  client,
		Now:          f.cfg.now,
	})
	if err != nil {
		return nil, err
	}
	r.fwdSink = fs
	fs.Instrument(r.reg)
	wrapped := &spanSink{
		inner: fs, tr: f.cfg.tr, node: name, layer: "forward", name: "write", tp: r.tp,
		traceOf: f.batchTrace,
	}
	r.fwdDisp = monitor.NewDispatcher(0, wrapped) // the default queue depth, as likwid-agent wires it
	r.fwdDisp.Instrument(r.reg)
	traced := f.cfg.tr != nil
	h.SetForward(func(b monitor.Batch) {
		if traced && len(b.Samples) > 0 {
			id := f.batchTrace(b)
			recv.hookMu.Lock()
			recv.hookAt[id] = time.Now()
			recv.hookMu.Unlock()
		}
		recv.fwdDisp.Publish(b)
	})
	return r, nil
}

// batchTrace folds a batch into its journey id from its first sample.
func (f *fleet) batchTrace(b monitor.Batch) int64 {
	if len(b.Samples) == 0 {
		return 0
	}
	s := b.Samples[0]
	a := 0
	if s.Source != "" {
		a = f.obs.agentOf[s.Source]
	}
	return traceID(a, tickOf(s.Time))
}

func (f *fleet) newAgent(idx int, targets []string) (*agentNode, error) {
	a := &agentNode{name: fmt.Sprintf("agent%d", idx), idx: idx, reg: telemetry.New()}
	a.store = monitor.NewStore(f.shape.storeCap)
	a.store.Instrument(a.reg)
	labels := mustLabels(map[string]string{"cluster": "emmy", "job": fleetJobs[idx%len(fleetJobs)]})
	keys := map[monitor.Key]int32{}
	for m := 0; m < f.shape.metrics; m++ {
		for id := 0; id < f.shape.ids; id++ {
			s := monitor.Sample{
				Metric: fmt.Sprintf("metric_%02d", m), Scope: monitor.ScopeThread,
				ID: id, Labels: labels,
			}
			keys[s.Key()] = int32(len(a.tmpl))
			a.tmpl = append(a.tmpl, s)
		}
	}
	gen := newSeriesGen(f.cfg.rng(int64(100+idx)), len(a.tmpl))
	f.gen = append(f.gen, gen)
	f.obs.agentOf[a.name] = idx
	f.obs.seriesIdx = append(f.obs.seriesIdx, keys)
	f.obs.gens = append(f.obs.gens, gen)
	f.obs.seen = append(f.obs.seen, nil)

	a.tp = newTransport(f.hosts, f.hop1, f.cfg.tr, a.name, "push")
	client := &http.Client{Transport: a.tp, Timeout: 10 * time.Second}
	cs, err := cluster.New(cluster.Options{
		Targets:      targets,
		Policy:       cluster.PolicyShard,
		Format:       monitor.WireV4,
		Source:       a.name,
		FlushSamples: f.shape.flushSamples,
		Client:       client,
		ProbeClient:  client,
		Now:          f.cfg.now,
	})
	if err != nil {
		return nil, err
	}
	a.sink = cs
	cs.Instrument(a.reg)
	agentIdx := idx
	a.wsink = &spanSink{
		inner: cs, tr: f.cfg.tr, node: a.name, layer: "push", name: "write", tp: a.tp,
		traceOf: func(b monitor.Batch) int64 { return traceID(agentIdx, tickOf(b.Time)) },
	}
	return a, nil
}

// prime feeds whole ticks through every agent until the root has seen
// every series once: every store on the path has created its series,
// every client has dialled.  It is part of set-up, so series-creation
// cost shows in setup_s and not in the measured phase.
func (f *fleet) prime() error {
	// The first primed tick of every series reaching the root means every
	// shard has shipped and every store on the path holds the series.
	want := f.shape.seriesPerAgent()
	allSeen := func() bool {
		f.obs.mu.Lock()
		defer f.obs.mu.Unlock()
		for _, seen := range f.obs.seen {
			for bit := 0; bit < want; bit++ { // tick 0 owns the first `want` bits
				if bit>>6 >= len(seen) || seen[bit>>6]&(1<<(uint(bit)&63)) == 0 {
					return false
				}
			}
		}
		return true
	}
	// A wide fleet ships every tick, so one tick reaches every series.
	// A deep one flushes a target once it holds flushSamples: after that
	// many ticks every target owning at least one series has shipped.
	// The count is fixed, not "until seen", so a run's tick numbering —
	// and with it POST counts and wire bytes — repeats exactly.
	ticks := 1
	if f.shape.flushSamples > f.shape.seriesPerAgent() {
		ticks = f.shape.flushSamples
	}
	for tick := 0; tick < ticks; tick++ {
		for _, a := range f.agents {
			b := monitor.Batch{Collector: "synth", Time: timeOf(tick), Samples: a.batch(f.gen[a.idx], tick)}
			if err := a.sink.Write(b); err != nil {
				return fmt.Errorf("prime: %w", err)
			}
		}
	}
	f.primeTicks = ticks
	if !waitFor(10*time.Second, allSeen) {
		return fmt.Errorf("prime: the root never saw all %d series of every agent", want)
	}
	return nil
}

func (f *fleet) close() {
	if f.closed {
		return
	}
	f.closed = true
	f.closeWritePath()
	if f.root != nil {
		closeRecv(f.root)
	}
}

// closeWritePath shuts down everything but the root: agents, their
// sinks and probe loops, the receivers with their WAL writers and
// forwarders.  The epilogues read the root's store over the root's own
// HTTP sink, and timers left ticking in an idle write path decide which
// of the two cores is awake when a query arrives.
func (f *fleet) closeWritePath() {
	for _, a := range f.agents {
		if a.disp != nil {
			_ = a.disp.Close() // closes the cluster sink with it
		} else if a.sink != nil {
			_ = a.sink.Close()
		}
		if a.tp != nil {
			a.tp.close()
		}
	}
	f.agents = nil
	for _, r := range f.recvs {
		closeRecv(r)
	}
	f.recvs = nil
}

func closeRecv(r *recvNode) {
	if r.fwdDisp != nil {
		_ = r.fwdDisp.Close()
	}
	if r.http != nil {
		_ = r.http.Close()
	}
	if r.pm != nil {
		_ = r.pm.Close()
	}
	if r.tp != nil {
		r.tp.close()
	}
}

// ---- after the measured phase ---------------------------------------------

// generated is how many samples the fleet's generators emitted so far.
func (f *fleet) generated(ticksPerAgent []int) int64 {
	var n int64
	for _, t := range ticksPerAgent {
		n += int64(t) * int64(f.shape.seriesPerAgent())
	}
	return n
}

// walQuiet waits until every receiver's WAL writer has caught up with
// what its ingest path accepted (written + dropped == accepted).
func (f *fleet) walQuiet() bool {
	return waitFor(10*time.Second, func() bool {
		for _, r := range f.recvs {
			s := snapRegistry(r.reg)
			if s.value["likwid_wal_records_total"]+s.value["likwid_wal_dropped_total"] < s.value["likwid_ingest_accepted_total"] {
				return false
			}
		}
		return true
	})
}

// finish fills the counters every fleet run shares and runs the fleet
// oracles: exact delivery at the root, the root store's contents, and
// sample conservation hop by hop against each node's own registry.
func (f *fleet) finish(ms *mainStats, ticksPerAgent []int, checkStore bool) {
	f.walQuiet()
	// A push sink counts a batch as sent once its POST has returned, a
	// moment after the far end's hook saw it: let both hops' counters
	// settle before comparing them.
	waitFor(5*time.Second, func() bool {
		var fwdSent, agentSent uint64
		for _, r := range f.recvs {
			fwdSent += r.fwdSink.Sent()
		}
		for _, a := range f.agents {
			agentSent += a.sink.Sent()
		}
		_, total, _ := f.obs.counts()
		return int64(fwdSent) >= total && int64(agentSent) >= total
	})
	distinct, total, measured := f.obs.counts()
	ms.generated = f.generated(ticksPerAgent)
	ms.delivered = distinct
	ms.samples = measured
	ms.wireBytes = f.hop1.bytes.Load() + f.hop2.bytes.Load()
	ms.wireSamples = total
	ms.posts = f.hop1.posts.Load() + f.hop2.posts.Load()
	var accepted, fwdSent float64
	for _, r := range f.recvs {
		s := snapRegistry(r.reg)
		ms.walRecords += int64(s.value["likwid_wal_records_total"])
		ms.walDropped += int64(s.value["likwid_wal_dropped_total"])
		ms.walBytes += fileSize(filepath.Join(r.dir, "wal.log"))
		accepted += s.value["likwid_ingest_accepted_total"]
		fwdSent += float64(r.fwdSink.Sent())
		ms.fwdDropped += int64(r.fwdDisp.Dropped())
		ms.rejected += int64(s.value["likwid_ingest_rejected_total"])
	}
	rootSnap := snapRegistry(f.root.reg)
	ms.rejected += int64(rootSnap.value["likwid_ingest_rejected_total"])
	var agentSent float64
	for _, a := range f.agents {
		agentSent += float64(a.sink.Sent())
		if a.disp != nil {
			ms.dispDropped += int64(a.disp.Dropped())
		}
	}
	non2xx := f.hop1.non2xx.Load() + f.hop2.non2xx.Load()
	ms.attempted = ms.generated + ms.posts
	ms.failed = (ms.generated - ms.delivered) + non2xx

	f.obs.mu.Lock()
	dups, bad, foreign := f.obs.dups, f.obs.badValue, f.obs.foreign
	f.obs.mu.Unlock()
	f.or.check(dups == 0, "root accepted %d duplicate (source, series, tick) samples", dups)
	f.or.check(bad == 0, "%d samples reached the root with a value the generator did not send", bad)
	f.or.check(foreign == 0, "%d samples reached the root that no generator emitted", foreign)
	f.or.check(non2xx == 0, "%d POSTs failed or returned non-2xx", non2xx)
	// Conservation: what the agents' sinks had acknowledged, the
	// receivers accepted; what the receivers forwarded, the root accepted.
	f.or.check(agentSent == accepted, "hop 1 not conserved: agents sent %.0f, receivers accepted %.0f", agentSent, accepted)
	f.or.check(fwdSent == rootSnap.value["likwid_ingest_accepted_total"],
		"hop 2 not conserved: receivers forwarded %.0f, root accepted %.0f", fwdSent, rootSnap.value["likwid_ingest_accepted_total"])
	f.or.check(float64(total) == rootSnap.value["likwid_ingest_accepted_total"],
		"root hook saw %d samples, root registry accepted %.0f", total, rootSnap.value["likwid_ingest_accepted_total"])
	if checkStore {
		f.checkRootStore(ticksPerAgent)
	}
}

// checkRootStore reads every series back out of the root store and
// compares it point for point with what the generator sent.
func (f *fleet) checkRootStore(ticksPerAgent []int) {
	mismatched := 0
	for _, a := range f.agents {
		ticks := ticksPerAgent[a.idx]
		for i, s := range a.tmpl {
			k := s.Key()
			k.Source = a.name
			pts := f.root.store.Window(k, 0, -1)
			ok := len(pts) == ticks
			for t := 0; ok && t < ticks; t++ {
				ok = pts[t].Time == timeOf(t) && pts[t].Value == f.gen[a.idx].value(i, t)
			}
			if !ok {
				mismatched++
			}
		}
	}
	f.or.check(mismatched == 0, "%d root series differ from the generated sequence", mismatched)
}

// ---- fleet-steady ---------------------------------------------------------

func steadyShape(cfg runConfig) fleetShape {
	s := fleetShape{agents: 2, receivers: 2, metrics: 64, ids: 8, storeCap: 2048}
	if cfg.short {
		// 16 series per shard would never reach the push sink's default
		// flush threshold of 64.
		s.metrics, s.ids, s.flushSamples = 8, 4, 8
	}
	return s
}

type steadyEnv struct {
	f     *fleet
	ticks int // per agent, including prime and warm-up, once main ran
}

func setupSteady(cfg runConfig) (env, error) {
	shape := steadyShape(cfg)
	warm, meas := steadyTicks(cfg)
	if need := warm + meas + 8; need > shape.storeCap {
		shape.storeCap = need
	}
	f, err := newFleet(cfg, shape)
	if err != nil {
		return nil, err
	}
	for _, a := range f.agents {
		a.disp = monitor.NewDispatcher(64, a.wsink)
		a.disp.Instrument(a.reg)
	}
	return &steadyEnv{f: f}, nil
}

func steadyTicks(cfg runConfig) (warm, meas int) {
	if cfg.short {
		return 2, 8
	}
	return 20, int(math.Round(cfg.seconds / tickSeconds))
}

func (e *steadyEnv) close() { e.f.close() }

func (e *steadyEnv) main(cfg runConfig) (*mainStats, error) {
	f := e.f
	warm, meas := steadyTicks(cfg)
	first := f.primeTicks
	f.obs.mu.Lock()
	f.obs.measureFrom = first + warm
	f.obs.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	// writes holds each tick's hop-1 Write start and duration per agent.
	type writeRec struct {
		start time.Time
		dur   time.Duration
	}
	writes := make([][]writeRec, len(f.agents))
	var writesMu sync.Mutex // the dispatcher goroutines outlive the measured phase
	for _, a := range f.agents {
		a.col = &synthCollector{
			agent: a, gen: f.gen[a.idx], next: first, stop: first + warm + meas,
			warmTick: first + warm, first: first,
			warmed: make(chan struct{}), finished: make(chan struct{}),
		}
		writes[a.idx] = make([]writeRec, warm+meas)
		idx := a.idx
		a.wsink.onWrite = func(b monitor.Batch, start time.Time, dur time.Duration) {
			if t := tickOf(b.Time) - first; t >= 0 && t < len(writes[idx]) {
				writesMu.Lock()
				writes[idx][t] = writeRec{start, dur}
				writesMu.Unlock()
			}
		}
		sched := monitor.NewScheduler(monitor.SchedulerOptions{
			Store: a.store, Dispatcher: a.disp, Telemetry: a.reg,
		})
		sched.Add(a.col)
		wg.Add(1)
		// Real agents are not synchronised.  Starting them evenly spread
		// over one interval keeps their ticks from landing on the
		// receivers together, which would make freshness depend on which
		// agent the goroutine scheduler happened to serve first.
		offset := tickInterval * time.Duration(a.idx) / time.Duration(len(f.agents))
		go func() {
			defer wg.Done()
			time.Sleep(offset)
			sched.Run(ctx)
		}()
	}
	for _, a := range f.agents {
		<-a.col.warmed
	}
	t0, cpu0 := time.Now(), cpuTime()
	var m0 memCounters
	m0.read()
	sampler := startSampler(10*tickInterval, f.obs.measuredNow.Load, nil)
	for _, a := range f.agents {
		<-a.col.finished
	}
	want := int64(len(f.agents) * f.shape.seriesPerAgent() * (first + warm + meas))
	// A shortfall here shows as delivered < generated in finish.
	waitFor(10*time.Second, func() bool {
		d, _, _ := f.obs.counts()
		return d >= want
	})
	f.obs.mu.Lock()
	t1 := f.obs.last
	f.obs.mu.Unlock()
	cpu1 := cpuTime()
	cpuWin, rateWin := sampler.stop()
	var m1 memCounters
	m1.read()
	cancel()
	wg.Wait()

	ms := &mainStats{wall: t1.Sub(t0), cpu: cpu1 - cpu0, mem: m1.sub(m0), cpuUsWin: cpuWin, rateWin: rateWin}
	e.ticks = first + warm + meas
	ticksPer := make([]int, len(f.agents))
	for i := range ticksPer {
		ticksPer[i] = e.ticks
	}
	f.finish(ms, ticksPer, true)

	// Per-tick timings.  A tick is due one interval after the previous
	// Collect returned (the scheduler re-arms after each tick), so the
	// lag is start − (previous end + interval); the tiny gap between
	// Collect returning and the timer being re-armed rides in it.
	writesMu.Lock()
	defer writesMu.Unlock()
	var lagUs, freshMs, tickUs, waitUs, writeMs []float64
	due := make([][]time.Time, len(f.agents))
	var genBusy time.Duration
	for _, a := range f.agents {
		c := a.col
		genBusy += c.genBusy
		due[a.idx] = make([]time.Time, len(c.startAt))
		for i := range c.startAt {
			d := c.startAt[i]
			if i > 0 {
				d = c.endAt[i-1].Add(tickInterval)
			}
			due[a.idx][i] = d
			if i < warm {
				continue
			}
			lagUs = append(lagUs, float64(c.startAt[i].Sub(d))/1e3)
			w := writes[a.idx][i]
			if w.start.IsZero() {
				continue // dropped by the dispatcher; shows as loss
			}
			tickUs = append(tickUs, float64(w.start.Add(w.dur).Sub(c.startAt[i]))/1e3)
			waitUs = append(waitUs, float64(w.start.Sub(c.endAt[i]))/1e3)
			writeMs = append(writeMs, float64(w.dur)/1e6)
		}
	}
	f.obs.mu.Lock()
	for _, ar := range f.obs.arrivals {
		i := ar.tick - first
		if i >= 0 && i < len(due[ar.agent]) {
			freshMs = append(freshMs, float64(ar.at.Sub(due[ar.agent][i]))/1e6)
		}
	}
	f.obs.mu.Unlock()
	ms.freshMs, ms.tickUs = freshMs, tickUs

	// Generator honesty: a generator that cannot hold its schedule is
	// measuring itself, not the fleet.  Single ticks do slip by tens of
	// milliseconds on a shared box (the p99 is reported, and freshness,
	// timed from the due time, carries every slip); the run is invalid
	// when the median tick is more than half an interval late.
	late := quantile(lagUs, 0.99) / 1e3
	if mid := median(lagUs) / 1e3; mid > float64(tickInterval/time.Millisecond)/2 && !cfg.short {
		ms.invalid = fmt.Sprintf("generator ran %.1f ms late at the median, over half the %v interval", mid, tickInterval)
	}
	ms.layer = map[string]float64{
		"sched.tick_lag_p50_us":       median(lagUs),
		"sched.gen_late_p99_ms":       late,
		"dispatch.wait_p50_us":        median(waitUs),
		"push.write_p50_ms":           median(writeMs),
		"collectors.samples_per_tick": float64(f.shape.seriesPerAgent()),
		"proc.generator_cpu_frac":     float64(genBusy) / float64(ms.cpu),
	}
	if cfg.tr != nil {
		f.traceLayers(ms, freshMs)
		// Hop 1 enters the sum as push.accept, not push.write: a wide
		// batch goes out as one POST per shard, one after the other, and
		// a sample waits for its own shard's POST only.
		ms.layer["fleet.stage_sum_ms"] = ms.layer["sched.tick_lag_p50_us"]/1e3 +
			ms.layer["dispatch.wait_p50_us"]/1e3 + ms.layer["push.accept_p50_ms"] +
			ms.layer["forward.wait_p50_ms"] + ms.layer["forward.post_rtt_p50_ms"]
		for _, a := range f.agents {
			for i := warm; i < len(a.col.startAt); i++ {
				cfg.tr.add(span{Layer: "collectors", Name: "collect", Node: a.name,
					Trace: traceID(a.idx, first+i), Parent: "sched.tick",
					Start: a.col.startAt[i], Dur: a.col.endAt[i].Sub(a.col.startAt[i])})
				cfg.tr.add(span{Layer: "sched", Name: "tick_lag", Node: a.name,
					Trace: traceID(a.idx, first+i), Start: due[a.idx][i],
					Dur: a.col.startAt[i].Sub(due[a.idx][i])})
				if w := writes[a.idx][i]; !w.start.IsZero() {
					cfg.tr.add(span{Layer: "dispatch", Name: "wait", Node: a.name,
						Trace: traceID(a.idx, first+i), Parent: "sched.tick",
						Start: a.col.endAt[i], Dur: w.start.Sub(a.col.endAt[i])})
				}
			}
		}
		for _, ar := range f.obs.arrivals {
			if i := ar.tick - first; i >= 0 && i < len(due[ar.agent]) {
				cfg.tr.add(span{Layer: "ingest", Name: "root_accept", Node: "root",
					Trace: traceID(ar.agent, ar.tick), Parent: "forward.post",
					Start: ar.at, Dur: 0})
			}
		}
	}
	return ms, nil
}

// traceLayers derives the fleet's per-layer numbers from the spans the
// transports recorded and from each node's own registry.
func (f *fleet) traceLayers(ms *mainStats, freshMs []float64) {
	l := ms.layer
	rootSamples := float64(ms.wireSamples)
	if rootSamples == 0 {
		return
	}
	l["push.posts"] = float64(f.hop1.posts.Load())
	l["push.wire_bytes_per_sample.hop1"] = float64(f.hop1.bytes.Load()) / rootSamples
	l["push.wire_bytes_per_sample.hop2"] = float64(f.hop2.bytes.Load()) / rootSamples
	if c := f.hop1.conns.Load() + f.hop2.conns.Load(); c > 0 {
		l["push.conn_reuse_frac"] = float64(f.hop1.reused.Load()+f.hop2.reused.Load()) / float64(c)
	}
	f.hop1.mu.Lock()
	l["push.post_rtt_p50_ms"] = median(f.hop1.rttMillis)
	l["push.accept_p50_ms"] = median(f.hop1.sinceWriteMs)
	l["ingest.post_ms_p50"] = l["push.post_rtt_p50_ms"]
	var hop1RTT float64
	for _, v := range f.hop1.rttMillis {
		hop1RTT += v
	}
	f.hop1.mu.Unlock()
	f.hop2.mu.Lock()
	l["forward.post_rtt_p50_ms"] = median(f.hop2.rttMillis)
	var hop2RTT float64
	for _, v := range f.hop2.rttMillis {
		hop2RTT += v
	}
	f.hop2.mu.Unlock()
	var waits []float64
	var retries, failovers float64
	var decodeS, appendS, accepted, fsyncs, fsyncS, walRecs float64
	for _, r := range f.recvs {
		r.hookMu.Lock()
		waits = append(waits, r.fwdWaits...)
		r.hookMu.Unlock()
		s := snapRegistry(r.reg)
		decodeS += s.sum["likwid_ingest_decode_seconds"]
		appendS += s.sum["likwid_ingest_append_seconds"]
		accepted += s.value["likwid_ingest_accepted_total"]
		fsyncs += s.value["likwid_wal_fsyncs_total"]
		fsyncS += s.sum["likwid_wal_fsync_seconds"]
		walRecs += s.value["likwid_wal_records_total"]
		retries += s.value["likwid_push_retries_total"]
		for _, ts := range r.fwdSink.Status() {
			failovers += float64(ts.Failovers)
			retries += float64(ts.Retries)
		}
	}
	rs := snapRegistry(f.root.reg)
	decodeS += rs.sum["likwid_ingest_decode_seconds"]
	appendS += rs.sum["likwid_ingest_append_seconds"]
	accepted += rs.value["likwid_ingest_accepted_total"]
	for _, a := range f.agents {
		for _, ts := range a.sink.Status() {
			failovers += float64(ts.Failovers)
			retries += float64(ts.Retries)
		}
	}
	l["forward.wait_p50_ms"] = median(waits)
	l["forward.dropped_batches"] = float64(ms.fwdDropped)
	l["dispatch.dropped_batches"] = float64(ms.dispDropped)
	l["push.retries"] = retries
	l["cluster.failovers"] = failovers
	l["ingest.rejected"] = float64(ms.rejected)
	if accepted > 0 {
		l["ingest.decode_us_per_sample"] = decodeS * 1e6 / accepted
		l["ingest.append_us_per_sample"] = appendS * 1e6 / accepted
	}
	l["persist.wal_fsyncs"] = fsyncs
	if fsyncs > 0 {
		l["persist.wal_fsync_mean_ms"] = fsyncS * 1e3 / fsyncs
	}
	if walRecs+float64(ms.walDropped) > 0 {
		l["persist.wal_dropped_frac"] = float64(ms.walDropped) / (walRecs + float64(ms.walDropped))
	}
	l["fleet.freshness_p50_ms"] = median(freshMs)
	l["fleet.freshness_p99_ms"] = quantile(freshMs, 0.99)
	if ms.generated > 0 {
		l["fleet.loss_frac"] = 1 - float64(ms.delivered)/float64(ms.generated)
	}

	// Busy time.  push = the agents' Write spans minus the POSTs inside
	// them (buffer + partition + encode); forward likewise on hop 2;
	// ingest = what the handlers' own histograms timed; the POST
	// round-trips minus that handler time are transport, owned by no
	// layer of the repo and left out.
	tr := f.cfg.tr
	var pushWrite, fwdWrite time.Duration
	tr.mu.Lock()
	for _, s := range tr.spans {
		switch {
		case s.Layer == "push" && s.Name == "write":
			pushWrite += s.Dur
		case s.Layer == "forward" && s.Name == "write":
			fwdWrite += s.Dur
		}
	}
	tr.mu.Unlock()
	pushSelf := pushWrite - time.Duration(hop1RTT*1e6)
	fwdSelf := fwdWrite - time.Duration(hop2RTT*1e6)
	if pushSelf > 0 {
		l["push.self_us_per_sample"] = float64(pushSelf) / 1e3 / rootSamples
	}
	tr.addBusy("push", pushSelf)
	tr.addBusy("forward", fwdSelf)
	tr.addBusy("ingest", time.Duration((decodeS+appendS)*1e9))
}

func (e *steadyEnv) oracle() *oracle { return e.f.or }

func (e *steadyEnv) terminal() terminal { return e.f.terminal() }

func (e *steadyEnv) probes(cfg runConfig, ms *mainStats) { e.f.probes(cfg, ms) }

func (f *fleet) terminal() terminal {
	f.closeWritePath()
	return terminal{store: f.root.store, addr: f.root.http.Addr(), lines: f.shape.agents * f.shape.seriesPerAgent()}
}

// probes times the direct calls the fleet workloads share and turns
// them into busy time: every sample is appended three times (agent,
// shard, root), looked up on the ring once, journaled once.
func (f *fleet) probes(cfg runConfig, ms *mainStats) {
	a := f.agents[0]
	wide := a.batch(f.gen[0], 0)
	for i := range wide {
		wide[i].Source = a.name
	}
	plain, journaled, walUs := probeAppend(filepath.Join(cfg.dir, "probe-wal"), wide)
	l := ms.layer
	l["store.append_ns_per_sample"] = plain
	l["store.append_journaled_ns_per_sample"] = journaled
	l["persist.wal_us_per_sample"] = walUs
	l["cluster.ring_lookup_ns"] = probeRing(a.sink.Ring(), wide)
	l["telemetry.snapshot_us"], l["telemetry.self_collect_us"] = probeTelemetry(f.recvs[0].reg)
	n := float64(ms.wireSamples)
	appends := 2 * n // shard + root
	if a.disp != nil {
		appends += n // the agent's own store, fed by the scheduler
	}
	cfg.tr.addBusy("store", time.Duration(plain*appends))
	cfg.tr.addBusy("cluster", time.Duration(l["cluster.ring_lookup_ns"]*n))
	cfg.tr.addBusy("persist", time.Duration(walUs*1e3*float64(ms.walRecords)))
	for _, ag := range f.agents {
		if ag.col != nil {
			cfg.tr.addBusy("collectors", ag.col.genBusy)
		}
	}
}

// ---- fleet-catchup --------------------------------------------------------

// catchupBlock is how many ticks make one timed block: with 8 series a
// block is one deep POST's worth (2048 samples).
const catchupBlock = 256

// catchupWindow is how many samples a catch-up writer may have on their
// way to the root: the loop is closed end to end, not just on the first
// hop.  Without it the first hop outruns the second, the forward queue
// grows for as long as the run lasts, and freshness measures the run's
// length.  Eight blocks keep every stage busy (a writer's two push
// buffers alone hold up to two).
const catchupWindow = 8 * catchupBlock

type catchupEnv struct{ f *fleet }

func setupCatchup(cfg runConfig) (env, error) {
	shape := fleetShape{agents: 2, receivers: 2, metrics: 1, ids: 8,
		flushSamples: 2048, storeCap: 1024}
	if cfg.short {
		shape.flushSamples = 256
	}
	f, err := newFleet(cfg, shape)
	if err != nil {
		return nil, err
	}
	return &catchupEnv{f: f}, nil
}

func (e *catchupEnv) close()                              { e.f.close() }
func (e *catchupEnv) oracle() *oracle                     { return e.f.or }
func (e *catchupEnv) terminal() terminal                  { return e.f.terminal() }
func (e *catchupEnv) probes(cfg runConfig, ms *mainStats) { e.f.probes(cfg, ms) }

func (e *catchupEnv) main(cfg runConfig) (*mainStats, error) {
	f := e.f
	first := f.primeTicks
	nSeries := f.shape.seriesPerAgent()
	const every = 16 // freshness is sampled on every 16th tick
	f.obs.mu.Lock()
	f.obs.measureFrom = first
	f.obs.arrivalEvery = every
	f.obs.mu.Unlock()
	maxTicks := 0
	if cfg.short {
		maxTicks = 4 * catchupBlock
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))

	type writerOut struct {
		ticks   int
		writeAt []time.Time // sampled: index (tick-first)/every
		blockUs []float64
		err     error
	}
	outs := make([]writerOut, len(f.agents))
	// Every writer ends on the same tick, so every agent's series cover
	// the same ticks: each reports the block boundary at which it saw
	// the deadline, waits for the others to report, and runs on to the
	// furthest.
	var (
		stopMu   sync.Mutex
		stopCond = sync.NewCond(&stopMu)
		reported int
		stopAt   int
	)
	agreeStop := func(tick int) int {
		stopMu.Lock()
		defer stopMu.Unlock()
		reported++
		if tick > stopAt {
			stopAt = tick
		}
		if reported == len(f.agents) {
			stopCond.Broadcast()
		}
		for reported < len(f.agents) {
			stopCond.Wait()
		}
		return stopAt
	}
	t0, cpu0 := time.Now(), cpuTime()
	var m0 memCounters
	m0.read()
	sampler := startSampler(250*time.Millisecond, f.obs.measuredNow.Load, nil)
	var wg sync.WaitGroup
	for _, a := range f.agents {
		wg.Add(1)
		go func(a *agentNode) {
			defer wg.Done()
			out := &outs[a.idx]
			gen := f.gen[a.idx]
			blockStart := time.Now()
			tick := first
			stop := 0 // 0 until the writers have agreed where to end
			for ; ; tick++ {
				n := tick - first
				if n%catchupBlock == 0 {
					now := time.Now()
					if n > 0 {
						out.blockUs = append(out.blockUs, float64(now.Sub(blockStart))/1e3)
						cfg.tr.add(span{Layer: "push", Name: "write", Node: a.name,
							Trace: traceID(a.idx, tick-catchupBlock), Start: blockStart, Dur: now.Sub(blockStart)})
					}
					if maxTicks == 0 && stop == 0 && now.After(deadline) {
						stop = agreeStop(tick)
						now = time.Now() // the wait for the others is not block time
					}
					if (maxTicks > 0 && n >= maxTicks) || (stop > 0 && tick >= stop) {
						break
					}
					blockStart = now
					a.tp.cur.Store(traceID(a.idx, tick))
					for int64(tick*nSeries)-f.obs.acceptedBy[a.idx].Load() > int64(catchupWindow*nSeries) {
						time.Sleep(200 * time.Microsecond)
					}
				}
				if tick%every == 0 {
					out.writeAt = append(out.writeAt, time.Now())
				}
				b := monitor.Batch{Collector: "synth", Time: timeOf(tick), Samples: a.batch(gen, tick)}
				if err := a.sink.Write(b); err != nil {
					out.err = err
					break
				}
			}
			out.ticks = tick
			if err := a.sink.Close(); err != nil && out.err == nil {
				out.err = err
			}
		}(a)
	}
	wg.Wait()
	// Windows cover the saturated regime only, not the short drain.
	cpuWin, rateWin := sampler.stop()
	ticksPer := make([]int, len(f.agents))
	for i := range outs {
		if outs[i].err != nil {
			return nil, outs[i].err
		}
		ticksPer[i] = outs[i].ticks
	}
	want := f.generated(ticksPer)
	waitFor(30*time.Second, func() bool {
		d, _, _ := f.obs.counts()
		return d >= want
	})
	f.obs.mu.Lock()
	t1 := f.obs.last
	f.obs.mu.Unlock()
	cpu1 := cpuTime()
	var m1 memCounters
	m1.read()

	ms := &mainStats{wall: t1.Sub(t0), cpu: cpu1 - cpu0, mem: m1.sub(m0), cpuUsWin: cpuWin, rateWin: rateWin}
	f.finish(ms, ticksPer, false)
	f.obs.mu.Lock()
	for _, ar := range f.obs.arrivals {
		// The first sampled tick at or after `first` has index 0.
		base := (first + every - 1) / every
		i := ar.tick/every - base
		if w := outs[ar.agent].writeAt; i >= 0 && i < len(w) {
			ms.freshMs = append(ms.freshMs, float64(ar.at.Sub(w[i]))/1e6)
		}
	}
	f.obs.mu.Unlock()
	for i := range outs {
		ms.tickUs = append(ms.tickUs, outs[i].blockUs...)
	}
	ms.layer = map[string]float64{"collectors.samples_per_tick": float64(f.shape.seriesPerAgent())}
	if cfg.tr != nil {
		f.traceLayers(ms, ms.freshMs)
	}
	return ms, nil
}
