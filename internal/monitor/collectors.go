package monitor

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"likwid/internal/features"
	"likwid/internal/hwdef"
	"likwid/internal/machine"
	"likwid/internal/perfctr"
	"likwid/internal/topology"
)

// DefaultRegistry holds the built-in collectors.
var DefaultRegistry = Registry{
	"perfgroup": newPerfGroupCollector,
	"topology":  newTopologyCollector,
	"features":  newFeaturesCollector,
	"membw":     newMemBWCollector,
}

// lockedNow reads simulated time under the shared machine mutex.
func lockedNow(mu *sync.Mutex, m *machine.Machine) float64 {
	if mu != nil {
		mu.Lock()
		defer mu.Unlock()
	}
	return m.Now()
}

// ---- perfgroup ------------------------------------------------------------

// compiledMetric is one derived metric's output identity; its formula
// is the same index of the collector's perfctr.Program.
type compiledMetric struct {
	name   string // sanitized series name
	socket bool   // formula references uncore events: socket scope
	mean   bool   // intensive (no /time): combine by mean across domains
}

// socketLeader is the cpu column whose counters stand for its socket's
// uncore: the socket's lowest-numbered monitored cpu.
type socketLeader struct{ socket, col int }

// PerfGroupCollector samples a preconfigured perfctr event group
// continuously: each tick advances simulated time, snapshots the live
// counters without stopping them, and converts the interval deltas into
// derived-metric samples — likwid-perfCtr's wrapper mode turned into an
// always-on loop.  Metrics whose formulas use uncore events are emitted at
// socket scope on the socket-lock leader columns; everything else is
// per-thread.
type PerfGroupCollector struct {
	name     string
	m        *machine.Machine
	mu       *sync.Mutex
	col      *perfctr.Collector
	prog     *perfctr.Program
	metrics  []compiledMetric
	interval time.Duration
	advance  func(dt float64)
	rawNames []string // "event/<name>" per event; nil without -raw

	cpus    []int
	leaders []socketLeader // one per socket, ordered by socket id

	// Per-tick state, reused: the counter reads double-buffer, rows holds
	// one Program row per cpu column and vals its metric values.
	prev, cur perfctr.Results
	prevTime  float64
	delta     []float64 // one event's per-column increments
	rows      []float64
	vals      []float64
	samples   int // the most samples one tick emits
}

func newPerfGroupCollector(cfg Config) (Collector, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("monitor: perfgroup collector needs a machine")
	}
	groupName := cfg.Group
	if groupName == "" {
		groupName = "MEM_DP"
	}
	group, err := perfctr.GroupFor(cfg.Machine.Arch, groupName)
	if err != nil {
		return nil, err
	}
	cpus := cfg.cpusOrAll()
	specs := make([]perfctr.EventSpec, 0, len(group.Events))
	for _, ev := range group.Events {
		specs = append(specs, perfctr.EventSpec{Event: ev})
	}
	// Multiplexing on: a monitoring group must come up on any counter
	// inventory, trading accuracy for availability like the real agent.
	col, err := perfctr.NewCollector(cfg.Machine, cpus, specs, perfctr.Options{Multiplex: true})
	if err != nil {
		return nil, err
	}
	c := &PerfGroupCollector{
		name:     "perfgroup/" + group.Name,
		m:        cfg.Machine,
		mu:       cfg.MachineMu,
		col:      col,
		prog:     perfctr.NewProgram(col.EventNames(), group.Metrics),
		interval: cfg.Interval,
		advance:  cfg.Advance,
		cpus:     cpus,
	}
	if c.interval <= 0 {
		c.interval = time.Second
	}
	if c.advance == nil {
		c.advance = func(dt float64) { cfg.Machine.RunIdle(dt, 0) }
	}
	uncore := map[string]bool{}
	for name, ev := range cfg.Machine.Arch.Events {
		if ev.Domain == hwdef.DomainUncore {
			uncore[name] = true
		}
	}
	for i, mtr := range group.Metrics {
		expr := c.prog.Expr(i)
		if expr == nil {
			_, err := perfctr.CompileExpr(mtr.Formula)
			return nil, fmt.Errorf("monitor: group %s metric %q: %w", group.Name, mtr.Name, err)
		}
		cm := compiledMetric{name: SanitizeMetric(mtr.Name), mean: true}
		for _, v := range expr.Vars() {
			if uncore[v] {
				cm.socket = true
			}
			if v == "time" {
				cm.mean = false // a rate: additive across domain members
			}
		}
		c.metrics = append(c.metrics, cm)
	}
	for i, cpu := range cpus {
		s := cfg.Machine.SocketOf(cpu)
		if j := slices.IndexFunc(c.leaders, func(l socketLeader) bool { return l.socket == s }); j < 0 {
			c.leaders = append(c.leaders, socketLeader{socket: s, col: i})
		} else if cpus[c.leaders[j].col] > cpu {
			c.leaders[j].col = i
		}
	}
	// A fixed row order: sinks and the scheduler's plans key on position.
	slices.SortFunc(c.leaders, func(a, b socketLeader) int { return a.socket - b.socket })
	for _, m := range c.metrics {
		if m.socket {
			c.samples += len(c.leaders)
		} else {
			c.samples += len(cpus)
		}
	}
	if cfg.RawEvents {
		for _, ev := range col.EventNames() {
			c.rawNames = append(c.rawNames, "event/"+ev)
		}
		c.samples += len(c.rawNames) * len(cpus)
	}
	c.rows = make([]float64, len(cpus)*c.prog.Width())
	c.vals = make([]float64, len(cpus)*len(c.metrics))
	if err := col.Start(); err != nil {
		return nil, err
	}
	col.CurrentInto(&c.prev)
	c.prevTime = cfg.Machine.Now()
	return c, nil
}

// Name identifies the collector including its group.
func (c *PerfGroupCollector) Name() string { return c.name }

// Scope is the finest domain the collector emits.
func (c *PerfGroupCollector) Scope() Scope { return ScopeThread }

// Interval is the sampling period.
func (c *PerfGroupCollector) Interval() time.Duration { return c.interval }

// MeanMetrics lists the intensive metrics (CPI, ratios) for aggregation.
func (c *PerfGroupCollector) MeanMetrics() []string {
	var out []string
	for _, m := range c.metrics {
		if m.mean {
			out = append(out, m.name)
		}
	}
	return out
}

// Collect advances simulated time by one interval, snapshots the counters,
// and emits the interval's derived metrics.
func (c *PerfGroupCollector) Collect(ctx context.Context) ([]Sample, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	c.advance(c.interval.Seconds())
	c.col.CurrentInto(&c.cur)
	now := c.m.Now()
	dt := now - c.prevTime
	if dt <= 0 {
		return nil, nil
	}
	clock := c.m.Arch.ClockHz()

	// Per-column Program rows: the event increments, then the interval's
	// wall time, so rate formulas yield per-second values, then the clock.
	w, nev, nm := c.prog.Width(), len(c.cur.Events), len(c.metrics)
	for e, ev := range c.cur.Events {
		c.delta = perfctr.Interval(c.delta, c.prev.Counts[ev], c.cur.Counts[ev])
		for i, d := range c.delta {
			c.rows[i*w+e] = d
		}
	}
	for i := range c.cpus {
		row := c.rows[i*w : (i+1)*w]
		row[nev], row[nev+1] = dt, clock
		c.prog.Eval(row, c.vals[i*nm:(i+1)*nm])
	}
	c.prev, c.cur = c.cur, c.prev
	c.prevTime = now

	out := make([]Sample, 0, c.samples)
	for m, mtr := range c.metrics {
		if mtr.socket {
			for _, l := range c.leaders {
				if v := c.vals[l.col*nm+m]; !math.IsNaN(v) { // NaN: unavailable
					out = append(out, Sample{Metric: mtr.name, Scope: ScopeSocket, ID: l.socket, Time: now, Value: v})
				}
			}
			continue
		}
		for i, cpu := range c.cpus {
			if v := c.vals[i*nm+m]; !math.IsNaN(v) {
				out = append(out, Sample{Metric: mtr.name, Scope: ScopeThread, ID: cpu, Time: now, Value: v})
			}
		}
	}
	for e, name := range c.rawNames {
		for i, cpu := range c.cpus {
			out = append(out, Sample{
				Metric: name, Scope: ScopeThread, ID: cpu,
				Time: now, Value: c.rows[i*w+e] / dt,
			})
		}
	}
	return out, nil
}

// Stop halts the underlying counter collector.
func (c *PerfGroupCollector) Stop() error {
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.col.Stop()
}

// ---- topology -------------------------------------------------------------

// TopologyCollector emits the node's decoded shape as gauges: static, but
// published every interval so sinks and dashboards get a complete picture
// from any window of the stream.
type TopologyCollector struct {
	m        *machine.Machine
	mu       *sync.Mutex
	interval time.Duration
	info     *topology.Info
}

func newTopologyCollector(cfg Config) (Collector, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("monitor: topology collector needs a machine")
	}
	info, err := topology.Probe(cfg.Machine.CPUs, cfg.Machine.Arch.ClockMHz)
	if err != nil {
		return nil, err
	}
	iv := cfg.Interval
	if iv <= 0 {
		iv = time.Second
	}
	return &TopologyCollector{m: cfg.Machine, mu: cfg.MachineMu, interval: iv, info: info}, nil
}

func (c *TopologyCollector) Name() string            { return "topology" }
func (c *TopologyCollector) Scope() Scope            { return ScopeNode }
func (c *TopologyCollector) Interval() time.Duration { return c.interval }

// Collect publishes the topology gauges.
func (c *TopologyCollector) Collect(ctx context.Context) ([]Sample, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := lockedNow(c.mu, c.m)
	node := func(metric string, v float64) Sample {
		return Sample{Metric: metric, Scope: ScopeNode, Time: now, Value: v}
	}
	out := []Sample{
		node("topo/sockets", float64(c.info.Sockets)),
		node("topo/cores_per_socket", float64(c.info.CoresPerSocket)),
		node("topo/threads_per_core", float64(c.info.ThreadsPerCore)),
		node("topo/hw_threads", float64(len(c.info.Threads))),
		node("topo/clock_mhz", c.info.ClockMHz),
	}
	for socket, procs := range c.info.SocketGroups {
		out = append(out, Sample{
			Metric: "topo/socket_hw_threads", Scope: ScopeSocket, ID: socket,
			Time: now, Value: float64(len(procs)),
		})
	}
	return out, nil
}

// ---- features -------------------------------------------------------------

// FeaturesCollector watches the prefetcher state of IA32_MISC_ENABLE: a
// likwid-features toggle flipping mid-run shows up in the stream as a
// 0/1 step, which is exactly how such config drift is caught in practice.
type FeaturesCollector struct {
	m        *machine.Machine
	mu       *sync.Mutex
	tool     *features.Tool
	interval time.Duration
}

func newFeaturesCollector(cfg Config) (Collector, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("monitor: features collector needs a machine")
	}
	cpus := cfg.cpusOrAll()
	tool, err := features.New(cfg.Machine.MSRs, cfg.Machine.Arch, cpus[0])
	if err != nil {
		return nil, err
	}
	iv := cfg.Interval
	if iv <= 0 {
		iv = time.Second
	}
	return &FeaturesCollector{m: cfg.Machine, mu: cfg.MachineMu, tool: tool, interval: iv}, nil
}

func (c *FeaturesCollector) Name() string            { return "features" }
func (c *FeaturesCollector) Scope() Scope            { return ScopeNode }
func (c *FeaturesCollector) Interval() time.Duration { return c.interval }

// Collect reads the togglable feature states.
func (c *FeaturesCollector) Collect(ctx context.Context) ([]Sample, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.mu != nil {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	states, err := c.tool.List()
	if err != nil {
		return nil, err
	}
	now := c.m.Now()
	var out []Sample
	enabled := 0.0
	for _, st := range states {
		if !st.Togglable {
			continue
		}
		v := 0.0
		if st.Enabled {
			v = 1
			enabled++
		}
		out = append(out, Sample{
			Metric: "feature/" + SanitizeMetric(st.Name), Scope: ScopeNode,
			Time: now, Value: v,
		})
	}
	out = append(out, Sample{
		Metric: "feature/prefetchers_enabled", Scope: ScopeNode,
		Time: now, Value: enabled,
	})
	return out, nil
}

// ---- membw ----------------------------------------------------------------

// MemBWCollector publishes the memory system's capability envelope: the
// per-socket controller capacity and per-core stream ceilings the measured
// bandwidths should be read against (the saturation line of the paper's
// STREAM plots).
type MemBWCollector struct {
	m        *machine.Machine
	mu       *sync.Mutex
	interval time.Duration
	sockets  []int
}

func newMemBWCollector(cfg Config) (Collector, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("monitor: membw collector needs a machine")
	}
	if err := cfg.Machine.Mem.Validate(); err != nil {
		return nil, err
	}
	iv := cfg.Interval
	if iv <= 0 {
		iv = time.Second
	}
	seen := map[int]bool{}
	var sockets []int
	for _, cpu := range cfg.cpusOrAll() {
		s := cfg.Machine.SocketOf(cpu)
		if !seen[s] {
			seen[s] = true
			sockets = append(sockets, s)
		}
	}
	return &MemBWCollector{m: cfg.Machine, mu: cfg.MachineMu, interval: iv, sockets: sockets}, nil
}

func (c *MemBWCollector) Name() string            { return "membw" }
func (c *MemBWCollector) Scope() Scope            { return ScopeSocket }
func (c *MemBWCollector) Interval() time.Duration { return c.interval }

// MeanMetrics: capability ceilings are per-entity properties, not flows.
func (c *MemBWCollector) MeanMetrics() []string {
	return []string{"membw/single_stream_bytes", "membw/core_triad_bytes", "membw/core_scalar_bytes"}
}

// Collect publishes the bandwidth capability gauges.
func (c *MemBWCollector) Collect(ctx context.Context) ([]Sample, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	now := lockedNow(c.mu, c.m)
	perf := c.m.Arch.Perf
	var out []Sample
	for _, s := range c.sockets {
		out = append(out, Sample{
			Metric: "membw/socket_capacity_bytes", Scope: ScopeSocket, ID: s,
			Time: now, Value: perf.SocketMemBW,
		})
	}
	out = append(out,
		Sample{Metric: "membw/single_stream_bytes", Scope: ScopeNode, Time: now, Value: c.m.Mem.SingleStreamCap(1, true)},
		Sample{Metric: "membw/core_triad_bytes", Scope: ScopeNode, Time: now, Value: c.m.Mem.SingleStreamCap(3, true)},
		Sample{Metric: "membw/core_scalar_bytes", Scope: ScopeNode, Time: now, Value: c.m.Mem.SingleStreamCap(3, false)},
	)
	return out, nil
}
