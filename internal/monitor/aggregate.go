package monitor

import (
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"likwid/internal/stats"
	"likwid/internal/topology"
)

// Aggregator rolls thread-scope samples up the topology tree
// (thread → core → socket → node) using the decoded likwid-topology view,
// and attaches node-level distribution statistics (min / median / max via
// stats.Summarize) so a sink can show imbalance, not just totals.
//
// Additive metrics (bandwidths, Flop rates, event rates) combine by sum;
// intensive metrics (CPI, ratios, runtimes) combine by mean.  Collectors
// declare their intensive metrics through the AggregationHinter interface.
type Aggregator struct {
	socketOf map[int]int // processor -> socket
	coreOf   map[int]int // processor -> dense node-wide core index

	mu   sync.RWMutex
	mean map[string]bool // metrics combined by mean instead of sum
	gen  atomic.Uint64   // moved by SetMean: plans built before it are stale
}

// AggregationHinter is implemented by collectors whose metrics are not all
// additive; the scheduler forwards the hints to its aggregator.
type AggregationHinter interface {
	// MeanMetrics lists the metrics to combine by mean across domain
	// members (ratios, per-thread runtimes).
	MeanMetrics() []string
}

// NewAggregator derives the domain mapping for the monitored processors
// from a probed topology.
func NewAggregator(info *topology.Info, cpus []int) *Aggregator {
	a := &Aggregator{
		socketOf: map[int]int{},
		coreOf:   map[int]int{},
		mean:     map[string]bool{},
	}
	monitored := map[int]bool{}
	for _, c := range cpus {
		monitored[c] = true
	}
	// Dense core numbering: cores sorted by (socket, physical core id), so
	// core indexes are stable across runs and SMT siblings share one.
	type physCore struct{ socket, core int }
	coreIndex := map[physCore]int{}
	var cores []physCore
	seen := map[physCore]bool{}
	for _, t := range info.Threads {
		pc := physCore{socket: t.SocketID, core: t.CoreID}
		if !seen[pc] {
			seen[pc] = true
			cores = append(cores, pc)
		}
	}
	sort.Slice(cores, func(i, j int) bool {
		if cores[i].socket != cores[j].socket {
			return cores[i].socket < cores[j].socket
		}
		return cores[i].core < cores[j].core
	})
	for i, pc := range cores {
		coreIndex[pc] = i
	}
	for _, t := range info.Threads {
		if len(monitored) > 0 && !monitored[t.Proc] {
			continue
		}
		a.socketOf[t.Proc] = t.SocketID
		a.coreOf[t.Proc] = coreIndex[physCore{socket: t.SocketID, core: t.CoreID}]
	}
	return a
}

// SetMean marks metrics as intensive (combined by mean).  It moves the
// aggregator's generation, so every cached roll-up plan rebuilds.
func (a *Aggregator) SetMean(metrics ...string) {
	a.mu.Lock()
	for _, m := range metrics {
		a.mean[m] = true
	}
	a.gen.Add(1)
	a.mu.Unlock()
}

// Rollup derives the higher-scope samples of a batch.  Thread samples roll
// into core, socket and node sums/means plus node min/median/max series
// ("<metric>/min", "<metric>/median", "<metric>/max"); socket samples
// (uncore metrics) roll into the node sum only.  The input samples are not
// returned; callers append the roll-ups to the batch.  Each call plans
// the batch's shape afresh; the scheduler keeps its plans across ticks.
func (a *Aggregator) Rollup(samples []Sample) []Sample {
	return a.plan(samples).run(nil, samples)
}

// rollupPlan is Rollup resolved for one batch shape: where each input
// row's value goes and what each output row is.  Running it is one pass
// over the rows with no map and no string building.
type rollupPlan struct {
	gen uint64      // the aggregator generation whose mean flags it holds
	in  []rollupIn  // one per input row
	out []rollupOut // one per output row, in Rollup's order

	// Per-run buffers: one accumulator per output row, the newest time
	// of each metric, and each metric's member values in input order.
	acc, times, vals []float64
}

// rollupIn routes one input row: the metric whose time it advances and,
// for a member row, the output rows it adds into (-1 where none) and its
// slot among the metric's member values.
type rollupIn struct {
	metric, core, socket, node, val int32
}

// rollupOut is one output row.  A domain row's value is its accumulator,
// divided by its member count n when the metric is a mean; a summary row
// (stat > 0) is the minimum, median or maximum of vals[lo:hi].
type rollupOut struct {
	key    Key
	metric int32
	stat   int8
	mean   bool
	n      float64
	lo, hi int32
}

const (
	statNone = iota
	statMin
	statMedian
	statMax
)

// plan builds the roll-up plan of a batch shape.  Metrics keep their
// first-appearance order; within a metric, cores and sockets are emitted
// by id, then the node, then the distribution summary when the metric
// has more than one member.
func (a *Aggregator) plan(samples []Sample) *rollupPlan {
	a.mu.RLock()
	defer a.mu.RUnlock()
	type metricRows struct {
		name           string
		cores, sockets map[int]int32 // member domain id -> members, then output row
		node, n, next  int32         // node output row, members, next vals slot
	}
	p := &rollupPlan{gen: a.gen.Load(), in: make([]rollupIn, len(samples))}
	var metrics []*metricRows
	byName := map[string]int32{}
	// Metrics and their member domains, in first-appearance order; a
	// member row is marked with node 0 and its core and socket ids.
	for i, s := range samples {
		m, ok := byName[s.Metric]
		if !ok {
			m = int32(len(metrics))
			byName[s.Metric] = m
			metrics = append(metrics, &metricRows{name: s.Metric, cores: map[int]int32{}, sockets: map[int]int32{}})
		}
		mr, r := metrics[m], rollupIn{metric: m, core: -1, socket: -1, node: -1}
		core, mapped := a.coreOf[s.ID] // an unmapped processor has nothing to attribute
		switch {
		case s.Scope == ScopeThread && mapped:
			r.core, r.socket = int32(core), int32(a.socketOf[s.ID])
			mr.cores[core]++
			mr.sockets[a.socketOf[s.ID]]++
			fallthrough
		case s.Scope == ScopeSocket:
			r.node = 0
			mr.n++
		}
		p.in[i] = r
	}
	nvals := int32(0)
	for m, mr := range metrics {
		if mr.n == 0 {
			continue
		}
		mean := a.mean[mr.name]
		emit := func(metric string, scope Scope, id int, stat int8, n int32) int32 {
			p.out = append(p.out, rollupOut{key: Key{Metric: metric, Scope: scope, ID: id}, metric: int32(m),
				stat: stat, mean: mean && stat == statNone, n: float64(n), lo: nvals, hi: nvals + mr.n})
			return int32(len(p.out) - 1)
		}
		for _, id := range slices.Sorted(maps.Keys(mr.cores)) {
			mr.cores[id] = emit(mr.name, ScopeCore, id, statNone, mr.cores[id])
		}
		for _, id := range slices.Sorted(maps.Keys(mr.sockets)) {
			mr.sockets[id] = emit(mr.name, ScopeSocket, id, statNone, mr.sockets[id])
		}
		mr.node = emit(mr.name, ScopeNode, 0, statNone, mr.n)
		if mr.n > 1 {
			emit(mr.name+"/min", ScopeNode, 0, statMin, mr.n)
			emit(mr.name+"/median", ScopeNode, 0, statMedian, mr.n)
			emit(mr.name+"/max", ScopeNode, 0, statMax, mr.n)
		}
		mr.next = nvals
		nvals += mr.n
	}
	for i := range p.in {
		if r, mr := &p.in[i], metrics[p.in[i].metric]; r.node == 0 {
			if r.core >= 0 {
				r.core, r.socket = mr.cores[int(r.core)], mr.sockets[int(r.socket)]
			}
			r.node, r.val = mr.node, mr.next
			mr.next++
		}
	}
	p.acc, p.times, p.vals = make([]float64, len(p.out)), make([]float64, len(metrics)), make([]float64, nvals)
	return p
}

// run appends the roll-ups of samples, which must have the shape p was
// planned for, to dst.  Every accumulator adds its members in input
// order, so the result is Rollup's bit for bit.
func (p *rollupPlan) run(dst, samples []Sample) []Sample {
	clear(p.acc)
	clear(p.times)
	for i, r := range p.in {
		s := &samples[i]
		if s.Time > p.times[r.metric] {
			p.times[r.metric] = s.Time
		}
		if r.node < 0 {
			continue
		}
		p.acc[r.node] += s.Value
		p.vals[r.val] = s.Value
		if r.core >= 0 {
			p.acc[r.core] += s.Value
			p.acc[r.socket] += s.Value
		}
	}
	dst = slices.Grow(dst, len(p.out))
	var sum stats.Summary
	for j, o := range p.out {
		v := p.acc[j]
		switch o.stat {
		case statNone:
			if o.mean {
				v /= o.n
			}
		case statMin:
			sum = stats.SummarizeInPlace(p.vals[o.lo:o.hi])
			v = sum.Min
		case statMedian:
			v = sum.Median
		case statMax:
			v = sum.Max
		}
		dst = append(dst, Sample{Metric: o.key.Metric, Scope: o.key.Scope, ID: o.key.ID, Time: p.times[o.metric], Value: v})
	}
	return dst
}
