// Package machine assembles the simulated node: architecture definition,
// CPUID views, MSR space, OS scheduler and memory system — plus the event
// engine that executes workload phases and delivers hardware events into
// whatever counters the MSRs have armed.
//
// The engine is the stand-in for silicon: likwid-perfCtr programs
// PERFEVTSEL/FIXED_CTR_CTRL/uncore registers through the msr package
// exactly as on hardware, and this package increments the matching counter
// registers as simulated work proceeds.  Counting is strictly core-based:
// events are credited to the hardware thread (or socket, for uncore) where
// they happen, regardless of which task caused them — the property that
// makes affinity control necessary for sensible measurements (§II-A).
//
// Events travel as Counts, a fixed vector with one slot per canonical
// event (core scope first, socket scope from EvL3LinesIn on).  Each
// counter encoding an architecture defines is resolved to its synthesis
// terms once, in New, and every per-slice buffer lives on the Machine, so
// an engine slice (RunPhase → step → deliverCore/deliverSocket) allocates
// nothing: a monitoring agent driving the node as its load does not pay
// the load's garbage.
package machine

import (
	"fmt"
	"math"

	"likwid/internal/cpuid"
	"likwid/internal/hwdef"
	"likwid/internal/memsys"
	"likwid/internal/msr"
	"likwid/internal/sched"
)

// Machine is one simulated shared-memory node.  Its engine is driven by
// one goroutine at a time.
type Machine struct {
	Arch *hwdef.Arch
	MSRs *msr.Space
	CPUs []*cpuid.CPU
	OS   *sched.Kernel
	Mem  *memsys.System

	now float64 // simulated seconds

	// Synthesis terms per event-select encoding (core PMCs, uncore PMCs)
	// and per fixed counter, resolved from the event names once.
	coreByEnc   map[uint16][]Term
	uncoreByEnc map[uint16][]Term
	fixedTerms  [numFixed][]Term

	// line is the last-level cache line size in bytes, the unit of the
	// derived traffic events.
	line float64
	// uncoreCPU is the delivery device per socket for socket-scope events;
	// the uncore bank is shared, so the socket's first core stands in.
	uncoreCPU []int

	// residuals accumulate sub-integer counter deltas so that tiny event
	// counts (e.g. the single scalar SSE op of the paper's marker
	// listing) survive slicing exactly: one slot per hardware thread and
	// register (PMCs, then fixed counters, then uncore PMCs), see resid.
	residuals []float64
	residRegs int

	sc scratch

	sliceHooks []SliceHook
}

// numFixed is the number of fixed counters.  A residual row holds core PMC
// i at slot i, fixed counter i at NumPMC+i and uncore PMC i at
// NumPMC+numFixed+i.
const numFixed = 3

// resid returns the residual of one counter register of one hardware
// thread.
func (m *Machine) resid(cpu, slot int) *float64 {
	return &m.residuals[cpu*m.residRegs+slot]
}

// SliceHook runs after every engine time slice; perfctr's multiplexing
// timer is implemented with one.
type SliceHook func(now float64)

// Options configure machine construction.
type Options struct {
	Policy sched.Policy
	Seed   int64
}

// New builds a node for the named architecture.
func New(a *hwdef.Arch, opts Options) *Machine {
	m := &Machine{
		Arch:        a,
		MSRs:        msr.NewSpace(a),
		CPUs:        cpuid.NewNode(a),
		OS:          sched.New(a, opts.Policy, opts.Seed),
		Mem:         memsys.New(a),
		coreByEnc:   make(map[uint16][]Term),
		uncoreByEnc: make(map[uint16][]Term),
		line:        64,
	}
	for name, ev := range a.Events {
		switch ev.Domain {
		case hwdef.DomainPMC:
			m.coreByEnc[ev.EncodesAs()] = synthesis[name]
		case hwdef.DomainUncore:
			m.uncoreByEnc[ev.EncodesAs()] = synthesis[name]
		case hwdef.DomainFixed:
			if ev.FixedIndex >= 0 && ev.FixedIndex < numFixed {
				m.fixedTerms[ev.FixedIndex] = synthesis[name]
			}
		}
	}
	if llc, ok := a.LastLevelCache(); ok {
		m.line = float64(llc.LineSize)
	}
	n := m.OS.NumCPUs()
	m.uncoreCPU = make([]int, a.Sockets)
	for s := range m.uncoreCPU {
		for cpu := 0; cpu < n; cpu++ {
			if m.OS.SocketOf(cpu) == s {
				m.uncoreCPU[s] = cpu
				break
			}
		}
	}
	m.residRegs = a.NumPMC + numFixed + a.NumUncore
	m.residuals = make([]float64, n*m.residRegs)
	m.sc.init(m)
	return m
}

// NewNamed is New for a registry architecture name.
func NewNamed(name string, opts Options) (*Machine, error) {
	a, err := hwdef.Lookup(name)
	if err != nil {
		return nil, err
	}
	return New(a, opts), nil
}

// Now returns the simulated time in seconds.
func (m *Machine) Now() float64 { return m.now }

// AddSliceHook registers a callback run after every engine slice.
func (m *Machine) AddSliceHook(h SliceHook) { m.sliceHooks = append(m.sliceHooks, h) }

// SocketOf maps a logical processor to its socket.
func (m *Machine) SocketOf(cpu int) int { return m.OS.SocketOf(cpu) }

// Inject delivers a canonical event vector to one hardware thread
// immediately (socket-scope keys go to the thread's socket).  Workloads use
// it for exact one-shot counts such as loop-setup instructions.
func (m *Machine) Inject(cpu int, deltas *Counts) error {
	if cpu < 0 || cpu >= m.OS.NumCPUs() {
		return fmt.Errorf("machine: inject on nonexistent cpu %d", cpu)
	}
	var socket Counts
	copy(socket[EvL3LinesIn:], deltas[EvL3LinesIn:])
	// Core counters see every key (they only match events they are armed
	// for, and per-core bus events on uncore-less parts need the traffic
	// keys); the socket's shared counters see the socket-scope subset.
	m.deliverCore(cpu, deltas)
	m.deliverSocket(m.SocketOf(cpu), &socket)
	return nil
}

// deliverCore routes a canonical vector into the armed core counters of one
// hardware thread.
func (m *Machine) deliverCore(cpu int, deltas *Counts) {
	dev, err := m.MSRs.Open(cpu)
	if err != nil {
		return
	}
	switch m.Arch.Vendor {
	case hwdef.Intel:
		global, _ := dev.Read(msr.IA32PerfGlobalCtl)
		for i := 0; i < m.Arch.NumPMC; i++ {
			if global&(1<<uint(i)) == 0 {
				continue
			}
			sel, _ := dev.Read(msr.IA32PerfEvtSel0 + uint32(i))
			code, umask, enabled := msr.EvtselFields(sel)
			if !enabled {
				continue
			}
			terms, ok := m.coreByEnc[uint16(umask)<<8|code]
			if !ok {
				continue
			}
			m.bump(dev, msr.IA32PMC0+uint32(i), m.resid(cpu, i), evaluate(terms, deltas))
		}
		if m.Arch.HasFixedCtr {
			ctrl, _ := dev.Read(msr.IA32FixedCtrCtrl)
			for i := 0; i < numFixed; i++ {
				if ctrl>>(4*uint(i))&0x3 == 0 || global&(1<<(32+uint(i))) == 0 {
					continue
				}
				if m.fixedTerms[i] == nil {
					continue
				}
				m.bump(dev, msr.IA32FixedCtr0+uint32(i), m.resid(cpu, m.Arch.NumPMC+i), evaluate(m.fixedTerms[i], deltas))
			}
		}
	case hwdef.AMD:
		for i := 0; i < m.Arch.NumPMC; i++ {
			sel, _ := dev.Read(msr.AMDPerfEvtSel0 + uint32(i))
			code, umask, enabled := msr.EvtselFields(sel)
			if !enabled {
				continue
			}
			terms, ok := m.coreByEnc[uint16(umask)<<8|code]
			if !ok {
				continue
			}
			m.bump(dev, msr.AMDPMC0+uint32(i), m.resid(cpu, i), evaluate(terms, deltas))
		}
	}
}

// deliverSocket routes socket-scope events into the shared uncore counters,
// exactly once per socket.
func (m *Machine) deliverSocket(socket int, deltas *Counts) {
	if m.Arch.NumUncore == 0 {
		return
	}
	cpu := m.uncoreCPU[socket]
	dev, err := m.MSRs.Open(cpu)
	if err != nil {
		return
	}
	global, _ := dev.Read(msr.UncGlobalCtl)
	for i := 0; i < m.Arch.NumUncore; i++ {
		if global&(1<<uint(i)) == 0 {
			continue
		}
		sel, _ := dev.Read(msr.UncPerfEvtSel + uint32(i))
		code, umask, enabled := msr.EvtselFields(sel)
		if !enabled {
			continue
		}
		terms, ok := m.uncoreByEnc[uint16(umask)<<8|code]
		if !ok {
			continue
		}
		// Key the residual on the socket's delivery cpu so rotation of
		// event sets does not leak residue across counters.
		m.bump(dev, msr.UncPMC+uint32(i), m.resid(cpu, m.Arch.NumPMC+numFixed+i), evaluate(terms, deltas))
	}
}

// bump adds a (possibly fractional) delta to a counter register, carrying
// the fractional residue in *resid forward so long runs lose nothing to
// slicing.
func (m *Machine) bump(dev *msr.Device, reg uint32, resid *float64, delta float64) {
	if delta <= 0 {
		return
	}
	total := *resid + delta
	whole := math.Floor(total)
	*resid = total - whole
	if whole > 0 {
		_ = dev.Add(reg, uint64(whole))
	}
}
