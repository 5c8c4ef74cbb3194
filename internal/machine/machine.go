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

// Machine is one simulated shared-memory node.
type Machine struct {
	Arch *hwdef.Arch
	MSRs *msr.Space
	CPUs []*cpuid.CPU
	OS   *sched.Kernel
	Mem  *memsys.System

	now float64 // simulated seconds

	// Reverse maps from event-select encodings to event names.
	coreByEnc   map[uint16]string
	uncoreByEnc map[uint16]string
	fixedNames  [3]string

	// residuals accumulate sub-integer counter deltas so that tiny event
	// counts (e.g. the single scalar SSE op of the paper's marker
	// listing) survive slicing exactly.
	residuals map[residKey]float64

	sliceHooks []SliceHook
}

type residKey struct {
	cpu int
	reg uint32
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
		coreByEnc:   make(map[uint16]string),
		uncoreByEnc: make(map[uint16]string),
		residuals:   make(map[residKey]float64),
	}
	for name, ev := range a.Events {
		switch ev.Domain {
		case hwdef.DomainPMC:
			m.coreByEnc[ev.EncodesAs()] = name
		case hwdef.DomainUncore:
			m.uncoreByEnc[ev.EncodesAs()] = name
		case hwdef.DomainFixed:
			if ev.FixedIndex >= 0 && ev.FixedIndex < 3 {
				m.fixedNames[ev.FixedIndex] = name
			}
		}
	}
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

// firstCPUOfSocket picks the delivery device for socket-scope events; the
// uncore bank is shared, so any core of the socket works.
func (m *Machine) firstCPUOfSocket(socket int) int {
	for cpu := 0; cpu < m.OS.NumCPUs(); cpu++ {
		if m.OS.SocketOf(cpu) == socket {
			return cpu
		}
	}
	return 0
}

// Inject delivers a canonical event vector to one hardware thread
// immediately (socket-scope keys go to the thread's socket).  Workloads use
// it for exact one-shot counts such as loop-setup instructions.
func (m *Machine) Inject(cpu int, deltas Counts) error {
	if cpu < 0 || cpu >= m.OS.NumCPUs() {
		return fmt.Errorf("machine: inject on nonexistent cpu %d", cpu)
	}
	socket := make(Counts)
	for k, v := range deltas {
		if k.SocketScope() {
			socket[k] = v
		}
	}
	// Core counters see every key (they only match events they are armed
	// for, and per-core bus events on uncore-less parts need the traffic
	// keys); the socket's shared counters see the socket-scope subset.
	m.deliverCore(cpu, deltas)
	m.deliverSocket(m.SocketOf(cpu), socket)
	return nil
}

// deliverCore routes a canonical vector into the armed core counters of one
// hardware thread.
func (m *Machine) deliverCore(cpu int, deltas Counts) {
	if len(deltas) == 0 {
		return
	}
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
			name, ok := m.coreByEnc[uint16(umask)<<8|code]
			if !ok {
				continue
			}
			m.bump(dev, cpu, msr.IA32PMC0+uint32(i), evaluate(name, deltas))
		}
		if m.Arch.HasFixedCtr {
			ctrl, _ := dev.Read(msr.IA32FixedCtrCtrl)
			for i := 0; i < 3; i++ {
				if ctrl>>(4*uint(i))&0x3 == 0 || global&(1<<(32+uint(i))) == 0 {
					continue
				}
				if m.fixedNames[i] == "" {
					continue
				}
				m.bump(dev, cpu, msr.IA32FixedCtr0+uint32(i), evaluate(m.fixedNames[i], deltas))
			}
		}
	case hwdef.AMD:
		for i := 0; i < m.Arch.NumPMC; i++ {
			sel, _ := dev.Read(msr.AMDPerfEvtSel0 + uint32(i))
			code, umask, enabled := msr.EvtselFields(sel)
			if !enabled {
				continue
			}
			name, ok := m.coreByEnc[uint16(umask)<<8|code]
			if !ok {
				continue
			}
			m.bump(dev, cpu, msr.AMDPMC0+uint32(i), evaluate(name, deltas))
		}
	}
}

// deliverSocket routes socket-scope events into the shared uncore counters,
// exactly once per socket.
func (m *Machine) deliverSocket(socket int, deltas Counts) {
	if len(deltas) == 0 || m.Arch.NumUncore == 0 {
		return
	}
	cpu := m.firstCPUOfSocket(socket)
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
		name, ok := m.uncoreByEnc[uint16(umask)<<8|code]
		if !ok {
			continue
		}
		// Key the residual on the socket's delivery cpu so rotation of
		// event sets does not leak residue across counters.
		m.bump(dev, cpu, msr.UncPMC+uint32(i), evaluate(name, deltas))
	}
}

// bump adds a (possibly fractional) delta to a counter register, carrying
// the fractional residue forward so long runs lose nothing to slicing.
func (m *Machine) bump(dev *msr.Device, cpu int, reg uint32, delta float64) {
	if delta <= 0 {
		return
	}
	key := residKey{cpu: cpu, reg: reg}
	total := m.residuals[key] + delta
	whole := math.Floor(total)
	m.residuals[key] = total - whole
	if whole > 0 {
		_ = dev.Add(reg, uint64(whole))
	}
}
