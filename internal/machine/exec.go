package machine

import (
	"math"

	"likwid/internal/memsys"
	"likwid/internal/sched"
)

// PerElem describes what one element (loop iteration, lattice-site update,
// …) of a workload costs on one thread.
type PerElem struct {
	// Cycles is the core execution time per element with all operands in
	// cache — the in-core bottleneck.
	Cycles float64
	// Counts are the core-scope canonical events per element
	// (instructions, SIMD ops, loads/stores, cache line movements, …).
	// Socket-scope keys are allowed and routed to the thread's socket.
	Counts Counts
	// Main-memory traffic per element in bytes.  The engine derives the
	// socket-scope line events from these (read lines fill the L3, write
	// lines victimize it, NT stores bypass it), so workloads must not put
	// EvMem*/EvL3Lines* into Counts as well.
	MemReadBytes  float64
	MemWriteBytes float64
	MemNTBytes    float64
	// L3Bytes is the traffic through the shared L3 per element, used for
	// the L3-bandwidth bound (relevant for cache-blocked kernels).
	L3Bytes float64
	// RemoteFraction of memory traffic that targets the other socket's
	// controller (broken ccNUMA locality).
	RemoteFraction float64
	// Streams is the number of concurrent memory streams; a single
	// stream cannot saturate the bus.
	Streams int
	// MemBWCap, when positive, is an explicit per-task memory-bandwidth
	// ceiling in bytes/s, overriding the Streams-derived one.  Pipeline
	// workloads use it to express a *group-wide* single leading stream
	// (the whole wavefront team shares one stream's worth of bandwidth).
	MemBWCap float64
	// Vector marks dense vectorized code (affects SMT gain and the
	// per-core bandwidth ceiling).
	Vector bool
}

// BytesPerElem is the total memory traffic per element.
func (p PerElem) BytesPerElem() float64 {
	return p.MemReadBytes + p.MemWriteBytes + p.MemNTBytes
}

// ThreadWork is one thread's share of a phase.
type ThreadWork struct {
	Task    *sched.Task
	Elems   float64
	PerElem PerElem
	// HomeSocket is the NUMA domain owning this thread's data, honored
	// only when HomeExplicit is set; otherwise the home is bound by first
	// touch — the socket the task runs on when the phase starts.
	HomeSocket   int
	HomeExplicit bool

	Done       float64
	FinishTime float64 // simulated time the work completed
}

// Remaining returns the unprocessed element count.
func (w *ThreadWork) Remaining() float64 { return w.Elems - w.Done }

// DefaultSlice is the engine time slice in seconds.
const DefaultSlice = 0.0005

// RunPhase executes the works to completion and returns the elapsed
// simulated time.  Counting, contention and scheduling happen per time
// slice:
//
//  1. each active task's in-core rate is computed from its cycle cost,
//     SMT-sibling activity and time-sharing on its hardware thread;
//  2. memory demands are arbitrated per socket controller (max-min fair,
//     NT and remote traffic weighted) and per-socket L3 bandwidth;
//  3. the task advances at the minimum of the core and memory rates and
//     its events are delivered to whatever counters are armed;
//  4. the scheduler's balancer may migrate unpinned tasks.
func (m *Machine) RunPhase(works []*ThreadWork, dt float64) float64 {
	if dt <= 0 {
		dt = DefaultSlice
	}
	start := m.now
	// First touch: bind data homes.
	for _, w := range works {
		if !w.HomeExplicit {
			w.HomeSocket = m.SocketOf(w.Task.CPU)
			w.HomeExplicit = true
		}
	}
	for {
		active := m.sc.active[:0]
		for _, w := range works {
			if w.Remaining() > 1e-9 {
				active = append(active, w)
			}
		}
		m.sc.active = active
		if len(active) == 0 {
			break
		}
		m.step(active, dt)
		for _, h := range m.sliceHooks {
			h(m.now)
		}
		m.OS.Rebalance(m.migrationProb())
	}
	return m.now - start
}

// migrationProb is the balancer probability per slice.
func (m *Machine) migrationProb() float64 { return 0.04 }

// RunIdle advances simulated time with no work running (the "sleep"
// workload of the monitoring use case): counters stay put, slice hooks
// still fire (multiplex rotation keeps going).
func (m *Machine) RunIdle(duration, dt float64) {
	if dt <= 0 {
		dt = DefaultSlice
	}
	end := m.now + duration
	for m.now < end {
		m.now += dt
		for _, h := range m.sliceHooks {
			h(m.now)
		}
	}
}

// scratch is the engine's per-slice working memory, held on the Machine
// and reused by every slice.  Per-CPU, per-core and per-socket rows are
// sized once by init; per-task rows grow to the largest phase seen.
type scratch struct {
	active []*ThreadWork

	// Occupancy: active tasks per hardware thread, busy hardware threads
	// per physical core (socket*CoresPerSocket + core), and each cpu's
	// row in coreBusy.
	onCPU    []int
	coreBusy []int
	coreOf   []int

	// Per active task: in-core rate, L3-bound rate, and the indexes of its
	// [local, remote] memory demands (-1: none).
	coreRate  []float64
	l3Rate    []float64
	demandIdx [][2]int

	demands []memsys.Demand
	grants  []memsys.Grant

	// One socket's L3 demands, the tasks they belong to, and the grants.
	l3Demand []float64
	l3Who    []int
	l3Grant  []float64

	// Socket-scope deltas per socket (touched: some task delivered), and
	// the busy time per hardware thread.
	socket  []Counts
	touched []bool
	cpuTime []float64
}

// init sizes the per-CPU, per-core and per-socket rows for m's node.
func (sc *scratch) init(m *Machine) {
	n := m.OS.NumCPUs()
	sc.onCPU = make([]int, n)
	sc.cpuTime = make([]float64, n)
	sc.coreOf = make([]int, n)
	for cpu := range sc.coreOf {
		s, c := m.OS.CoreOf(cpu)
		sc.coreOf[cpu] = s*m.Arch.CoresPerSocket + c
	}
	sc.coreBusy = make([]int, m.Arch.Sockets*m.Arch.CoresPerSocket)
	sc.socket = make([]Counts, m.Arch.Sockets)
	sc.touched = make([]bool, m.Arch.Sockets)
}

// perTask resizes the per-task rows to n active tasks.
func (sc *scratch) perTask(n int) {
	if cap(sc.coreRate) < n {
		sc.coreRate = make([]float64, n)
		sc.l3Rate = make([]float64, n)
		sc.demandIdx = make([][2]int, n)
	}
	sc.coreRate = sc.coreRate[:n]
	sc.l3Rate = sc.l3Rate[:n]
	sc.demandIdx = sc.demandIdx[:n]
}

func (m *Machine) step(active []*ThreadWork, dt float64) {
	clock := m.Arch.ClockHz()
	perf := m.Arch.Perf
	sc := &m.sc
	sc.perTask(len(active))

	// Occupancy.
	clear(sc.onCPU)
	clear(sc.coreBusy)
	for _, w := range active {
		cpu := w.Task.CPU
		sc.onCPU[cpu]++
		if sc.onCPU[cpu] == 1 {
			sc.coreBusy[sc.coreOf[cpu]]++
		}
	}

	// Phase A: in-core rates and memory demands.
	demands := sc.demands[:0]
	for i, w := range active {
		cpu := w.Task.CPU
		nShare := sc.onCPU[cpu]
		share := 1.0 / float64(nShare)
		if nShare > 1 {
			share *= 1 - perf.OversubscribePenalty*float64(nShare-1)
			if share < 0.05 {
				share = 0.05
			}
		}
		smtFactor := 1.0
		if busy := sc.coreBusy[sc.coreOf[cpu]]; busy > 1 {
			gain := perf.SMTVectorGain
			if !w.PerElem.Vector {
				gain = perf.SMTScalarGain
			}
			smtFactor = gain / float64(busy)
		}
		rate := math.Inf(1)
		if w.PerElem.Cycles > 0 {
			rate = clock / w.PerElem.Cycles * smtFactor * share
		}
		sc.coreRate[i] = rate

		sc.demandIdx[i] = [2]int{-1, -1}
		bpe := w.PerElem.BytesPerElem()
		if bpe > 0 && !math.IsInf(rate, 1) {
			// The per-core bandwidth ceiling (line-fill buffers) is a
			// physical-core resource: SMT siblings share it, scaled by
			// the same SMT gain as the execution units.
			cap := m.Mem.SingleStreamCap(w.PerElem.Streams, w.PerElem.Vector) * smtFactor * share
			if w.PerElem.MemBWCap > 0 {
				cap = w.PerElem.MemBWCap * share
			}
			// Remote accesses throttle the core's own fill buffers too:
			// the added interconnect latency cuts achievable per-core
			// bandwidth by the same remote factor.
			if rf := w.PerElem.RemoteFraction; rf > 0 {
				cap /= (1 - rf) + rf/perf.RemoteFactor
			}
			bytesWanted := math.Min(rate*bpe, cap)
			ntFrac := w.PerElem.MemNTBytes / bpe
			local := bytesWanted * (1 - w.PerElem.RemoteFraction)
			remote := bytesWanted * w.PerElem.RemoteFraction
			from := m.SocketOf(cpu)
			if local > 0 {
				sc.demandIdx[i][0] = len(demands)
				demands = append(demands, memsys.Demand{
					Task: i, HomeSocket: w.HomeSocket, FromSocket: from,
					Bytes: local, NTFraction: ntFrac,
				})
			}
			if remote > 0 {
				other := (w.HomeSocket + 1) % m.Arch.Sockets
				sc.demandIdx[i][1] = len(demands)
				demands = append(demands, memsys.Demand{
					Task: i, HomeSocket: other, FromSocket: from,
					Bytes: remote, NTFraction: ntFrac,
				})
			}
		}
	}
	sc.demands = demands
	grants := m.Mem.Arbitrate(sc.grants[:0], demands)
	sc.grants = grants

	// Per-socket L3 bandwidth, water-filled among the socket's tasks in
	// task order.
	for i := range sc.l3Rate {
		sc.l3Rate[i] = math.Inf(1)
	}
	for sock := range sc.socket {
		dms, who := sc.l3Demand[:0], sc.l3Who[:0]
		for i, w := range active {
			if w.PerElem.L3Bytes > 0 && !math.IsInf(sc.coreRate[i], 1) && m.SocketOf(w.Task.CPU) == sock {
				dms = append(dms, sc.coreRate[i]*w.PerElem.L3Bytes)
				who = append(who, i)
			}
		}
		sc.l3Demand, sc.l3Who = dms, who
		if len(dms) == 0 {
			continue
		}
		sc.l3Grant = memsys.Waterfill(sc.l3Grant[:0], perf.L3BW, dms)
		for j, i := range who {
			sc.l3Rate[i] = sc.l3Grant[j] / active[i].PerElem.L3Bytes
		}
	}

	// Phase B: advance each task at its bottleneck rate and deliver
	// events.
	clear(sc.touched)
	clear(sc.cpuTime)
	line := m.line
	for i, w := range active {
		rate := sc.coreRate[i]
		if bpe := w.PerElem.BytesPerElem(); bpe > 0 {
			var granted float64
			for _, gi := range sc.demandIdx[i] {
				if gi >= 0 {
					granted += grants[gi].Bytes
				}
			}
			rate = math.Min(rate, granted/bpe)
		}
		rate = math.Min(rate, sc.l3Rate[i])

		var dElems, used float64
		switch {
		case math.IsInf(rate, 1):
			dElems, used = w.Remaining(), 0
		case rate <= 0:
			continue
		default:
			dElems = math.Min(w.Remaining(), rate*dt)
			used = dElems / rate
		}
		w.Done += dElems
		if w.Remaining() <= 1e-9 && w.FinishTime == 0 {
			w.FinishTime = m.now + used
		}
		if used > sc.cpuTime[w.Task.CPU] {
			sc.cpuTime[w.Task.CPU] = used
		}

		// Core-scope delivery: explicit per-element counts plus the
		// derived traffic — on parts without uncore counters (Core 2,
		// Pentium M, Atom, K8) the memory traffic is observable through
		// per-core bus events like BUS_TRANS_MEM_ALL, so traffic keys
		// must reach the issuing core's counters too.  No event is
		// defined in both domains, so nothing double-counts.  A key in
		// both sets adds its explicit count first, then its derived one:
		// float addition is not associative, and the paper's figures
		// are pinned to the bit.
		sock := m.SocketOf(w.Task.CPU)
		if !sc.touched[sock] {
			sc.touched[sock] = true
			sc.socket[sock] = Counts{}
		}
		sd := &sc.socket[sock]
		var core Counts
		for k, v := range &w.PerElem.Counts {
			core[k] = v * dElems
			if Ev(k).SocketScope() {
				sd[k] += v * dElems
			}
		}
		derive := func(k Ev, v float64) {
			sd[k] += v
			core[k] += v
		}
		// Derived traffic events of this work's slice.
		derive(EvMemReadLines, w.PerElem.MemReadBytes*dElems/line)
		derive(EvMemWriteLines, (w.PerElem.MemWriteBytes+w.PerElem.MemNTBytes)*dElems/line)
		derive(EvL3LinesIn, w.PerElem.MemReadBytes*dElems/line)
		// In steady state every allocated line is eventually victimized,
		// so UNC_L3_LINES_OUT tracks the allocation flow (clean drops +
		// dirty write-backs) — the near-equality of lines-in and
		// lines-out across all three Jacobi variants in Table II.
		derive(EvL3LinesOut, w.PerElem.MemReadBytes*dElems/line)
		derive(EvL3Misses, (w.PerElem.MemReadBytes+w.PerElem.MemWriteBytes)*dElems/line)
		if w.PerElem.L3Bytes > 0 {
			hits := (w.PerElem.L3Bytes - w.PerElem.MemReadBytes - w.PerElem.MemWriteBytes) * dElems / line
			if hits > 0 {
				derive(EvL3Hits, hits)
			}
		}
		m.deliverCore(w.Task.CPU, &core)
	}

	// Unhalted cycles per busy hardware thread.
	for cpu, used := range sc.cpuTime {
		if used <= 0 {
			continue
		}
		m.deliverCore(cpu, &Counts{
			EvCycles:    used * clock,
			EvCyclesRef: used * clock,
		})
	}
	for sock := range sc.socket {
		if sc.touched[sock] {
			m.deliverSocket(sock, &sc.socket[sock])
		}
	}
	m.now += dt
}
