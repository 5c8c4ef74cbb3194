package node

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"

	"likwid/internal/machine"
	"likwid/internal/monitor"
	"likwid/internal/topology"
)

// armNode is an agent's source: the node's collectors, over a load
// driver that advances simulated time between samples, and the
// aggregator rolling their samples up the topology.
func armNode(cfg *Config, log *slog.Logger) (*monitor.Aggregator, []monitor.Collector, error) {
	node := cfg.Node
	loadCPUs := cfg.CPUs
	if len(loadCPUs) == 0 {
		loadCPUs = make([]int, node.M.OS.NumCPUs())
		for i := range loadCPUs {
			loadCPUs[i] = i
		}
	}
	load, err := newLoadDriver(node.M, loadCPUs, cfg.LoadSpec)
	if err != nil {
		return nil, nil, err
	}
	info, err := topology.Probe(node.M.CPUs, node.M.Arch.ClockMHz)
	if err != nil {
		return nil, nil, err
	}
	mcfg := monitor.Config{
		Machine:   node.M,
		MachineMu: new(sync.Mutex),
		CPUs:      cfg.CPUs,
		Group:     cfg.Group,
		Interval:  cfg.Interval,
		RawEvents: cfg.Raw,
		Advance:   load.advance,
	}
	names := cfg.Collectors
	if len(names) == 0 {
		names = monitor.DefaultRegistry.Names()
	}
	var active []monitor.Collector
	for _, name := range names {
		c, err := monitor.DefaultRegistry.Build(strings.TrimSpace(name), mcfg)
		if err != nil {
			// A collector that cannot come up on this node (e.g. features
			// on AMD) is skipped, not fatal: monitoring degrades, it does
			// not die.
			log.Warn("skipping collector", "collector", name, "err", err)
			continue
		}
		active = append(active, c)
	}
	if len(active) == 0 {
		return nil, nil, fmt.Errorf("no collector could be built; nothing to monitor")
	}
	return monitor.NewAggregator(info, cfg.CPUs), active, nil
}

// loadDriver advances simulated machine time between counter samples.  The
// "stream" mode keeps streaming tasks busy so the monitored counters move;
// it adapts the per-tick element count so one tick of work costs roughly
// one interval of simulated time.
type loadDriver struct {
	m           *machine.Machine
	works       []*machine.ThreadWork
	elemsPerSec float64
}

func newLoadDriver(m *machine.Machine, cpus []int, spec string) (*loadDriver, error) {
	kind, nTasks, err := parseLoadSpec(spec)
	if err != nil {
		return nil, err
	}
	d := &loadDriver{m: m, elemsPerSec: 1e8}
	if kind == "idle" {
		return d, nil
	}
	if nTasks == 0 {
		nTasks = 2 * m.Arch.Sockets
	}
	if nTasks > len(cpus) {
		nTasks = len(cpus)
	}
	// Spread tasks round-robin over sockets so every controller sees
	// traffic and the socket roll-ups have something to show.
	bySocket := map[int][]int{}
	var sockets []int
	for _, cpu := range cpus {
		s := m.SocketOf(cpu)
		if _, ok := bySocket[s]; !ok {
			sockets = append(sockets, s)
		}
		bySocket[s] = append(bySocket[s], cpu)
	}
	perElem := machine.PerElem{
		Cycles: 1.0,
		Counts: machine.Counts{
			machine.EvInstr:         3,
			machine.EvFlopsPackedDP: 1,
			machine.EvLoads:         2,
			machine.EvStores:        1,
		},
		MemReadBytes: 16, MemWriteBytes: 8,
		Streams: 3, Vector: true,
	}
	for i := 0; i < nTasks; i++ {
		socket := sockets[i%len(sockets)]
		socketCPUs := bySocket[socket]
		cpu := socketCPUs[(i/len(sockets))%len(socketCPUs)]
		task := m.OS.Spawn(fmt.Sprintf("agent-load-%d", i), nil)
		if err := m.OS.Pin(task, cpu); err != nil {
			return nil, err
		}
		d.works = append(d.works, &machine.ThreadWork{Task: task, PerElem: perElem})
	}
	return d, nil
}

// advance moves simulated time forward by roughly dt seconds.
func (d *loadDriver) advance(dt float64) {
	if len(d.works) == 0 {
		d.m.RunIdle(dt, 0)
		return
	}
	elems := d.elemsPerSec * dt
	for _, w := range d.works {
		w.Elems = elems
		w.Done = 0
		w.FinishTime = 0
	}
	elapsed := d.m.RunPhase(d.works, 0)
	if elapsed < dt {
		d.m.RunIdle(dt-elapsed, 0)
	}
	// Calibrate toward one interval of simulated work per tick.
	if elapsed > 0 {
		d.elemsPerSec *= min(max(dt/elapsed, 0.25), 4)
	}
}
