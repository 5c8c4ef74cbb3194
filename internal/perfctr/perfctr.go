// Package perfctr is the core of likwid-perfCtr: it programs hardware
// performance counters through the simulated MSR device files, measures any
// set of cores simultaneously, resolves preconfigured event groups with
// derived metrics, multiplexes event sets larger than the counter
// inventory, and applies socket locks so per-socket (uncore) events are
// measured and attributed exactly once per socket.
//
// Counting is strictly core-based, not process-based (§II-A of the paper):
// the collector reads whatever the cores' counters accumulated, no matter
// which task caused the events.  Pinning (internal/pin) is what gives the
// numbers meaning.
package perfctr

import (
	"fmt"
	"sort"
	"strings"

	"likwid/internal/hwdef"
	"likwid/internal/machine"
	"likwid/internal/msr"
)

// EventSpec is one command-line event selection, e.g.
// "SIMD_COMP_INST_RETIRED_PACKED_DOUBLE:PMC0".
type EventSpec struct {
	Event   string
	Counter string // "PMC<n>", "FIXC<n>", "UPMC<n>", or "" for auto
}

// ParseEventList parses the -g event string of likwid-perfCtr:
// comma-separated EVENT[:COUNTER] items.
func ParseEventList(s string) ([]EventSpec, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("perfctr: empty event list")
	}
	var out []EventSpec
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		parts := strings.SplitN(item, ":", 2)
		spec := EventSpec{Event: parts[0]}
		if len(parts) == 2 {
			spec.Counter = parts[1]
		}
		out = append(out, spec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("perfctr: empty event list")
	}
	return out, nil
}

// entry is one event scheduled on one counter slot.
type entry struct {
	Name string
	Ev   hwdef.Event
	Slot int
}

// eventSet is one multiplex round: the events countable simultaneously.
type eventSet struct {
	pmc    []entry
	uncore []entry
}

// Collector measures a set of events on a set of cores of one machine.
type Collector struct {
	M    *machine.Machine
	cpus []int

	fixed   []entry // counted in every set (Intel fixed counters)
	sets    []eventSet
	current int

	leaders []int          // socket-lock leader cpus, ascending
	setOf   map[string]int // programmable and uncore event -> its set

	active      bool
	startTime   float64
	setActive   []float64 // accumulated active seconds per set
	lastSwitch  float64
	muxInterval float64
	acc         map[string][]float64 // event -> per-cpu accumulated counts
	order       []string             // event display order
}

// Options configure a Collector.
type Options struct {
	// Multiplex allows more events than counters by round-robin rotation
	// of event sets (the -x mode); Interval is the rotation period in
	// simulated seconds (default 10 ms).
	Multiplex   bool
	MuxInterval float64
}

// NewCollector schedules the requested events onto counters for the given
// cores.  Scheduling rules mirror the real tool:
//
//   - INSTR_RETIRED_ANY and CPU_CLK_UNHALTED_CORE are always counted: on
//     Intel they occupy the unassignable fixed counters, on AMD they take
//     programmable slots.
//   - Uncore events take per-socket counters; a socket lock designates the
//     lowest measured core of each socket to program and read them, so
//     threaded measurements cannot double-count shared resources.
//   - Without multiplexing, overflowing the counter inventory is an error;
//     with it, events split into round-robin sets.
func NewCollector(m *machine.Machine, cpus []int, specs []EventSpec, opts Options) (*Collector, error) {
	if len(cpus) == 0 {
		return nil, fmt.Errorf("perfctr: no cpus to measure")
	}
	seen := map[int]bool{}
	for _, c := range cpus {
		if c < 0 || c >= m.OS.NumCPUs() {
			return nil, fmt.Errorf("perfctr: cpu %d does not exist (node has %d)", c, m.OS.NumCPUs())
		}
		if seen[c] {
			return nil, fmt.Errorf("perfctr: cpu %d listed twice", c)
		}
		seen[c] = true
	}
	c := &Collector{
		M:           m,
		cpus:        append([]int(nil), cpus...),
		muxInterval: opts.MuxInterval,
		acc:         map[string][]float64{},
		setOf:       map[string]int{},
	}
	if c.muxInterval <= 0 {
		c.muxInterval = 0.010
	}
	socketLeader := map[int]int{} // socket -> leader cpu (socket lock)
	for _, cpu := range c.cpus {
		s := m.SocketOf(cpu)
		if cur, ok := socketLeader[s]; !ok || cpu < cur {
			socketLeader[s] = cpu
		}
	}
	for _, cpu := range socketLeader {
		c.leaders = append(c.leaders, cpu)
	}
	sort.Ints(c.leaders)

	arch := m.Arch

	// Mandatory events first.
	mandatory := []string{"INSTR_RETIRED_ANY", "CPU_CLK_UNHALTED_CORE"}
	for _, name := range mandatory {
		ev, err := arch.EventByName(name)
		if err != nil {
			return nil, err
		}
		if ev.Domain == hwdef.DomainFixed {
			c.fixed = append(c.fixed, entry{Name: name, Ev: ev, Slot: ev.FixedIndex})
		}
	}

	cur := eventSet{}
	flush := func() error {
		if len(cur.pmc) == 0 && len(cur.uncore) == 0 {
			return nil
		}
		c.sets = append(c.sets, cur)
		cur = eventSet{}
		return nil
	}
	addPMC := func(name string, ev hwdef.Event, slot int) error {
		if slot < 0 {
			slot = len(cur.pmc)
		}
		if slot >= arch.NumPMC || len(cur.pmc) >= arch.NumPMC {
			if !opts.Multiplex {
				return fmt.Errorf("perfctr: event %s needs counter PMC%d but %s has only %d programmable counters (use multiplexing)",
					name, slot, arch.Name, arch.NumPMC)
			}
			if err := flush(); err != nil {
				return err
			}
			slot = 0
		}
		cur.pmc = append(cur.pmc, entry{Name: name, Ev: ev, Slot: slot})
		return nil
	}
	addUncore := func(name string, ev hwdef.Event, slot int) error {
		if arch.NumUncore == 0 {
			return fmt.Errorf("perfctr: event %s is an uncore event but %s has no uncore counters", name, arch.Name)
		}
		if slot < 0 {
			slot = len(cur.uncore)
		}
		if slot >= arch.NumUncore || len(cur.uncore) >= arch.NumUncore {
			if !opts.Multiplex {
				return fmt.Errorf("perfctr: too many uncore events for %s (%d counters)", arch.Name, arch.NumUncore)
			}
			if err := flush(); err != nil {
				return err
			}
			slot = 0
		}
		cur.uncore = append(cur.uncore, entry{Name: name, Ev: ev, Slot: slot})
		return nil
	}

	// On AMD the mandatory events occupy programmable slots in every set;
	// handled by prepending them to the request list per set below.
	request := make([]EventSpec, 0, len(specs)+2)
	if !arch.HasFixedCtr {
		request = append(request,
			EventSpec{Event: "INSTR_RETIRED_ANY"},
			EventSpec{Event: "CPU_CLK_UNHALTED_CORE"})
	}
	request = append(request, specs...)

	dup := map[string]bool{}
	for _, spec := range request {
		if dup[spec.Event] {
			continue
		}
		dup[spec.Event] = true
		ev, err := arch.EventByName(spec.Event)
		if err != nil {
			return nil, err
		}
		slot, domain, err := parseCounter(spec.Counter)
		if err != nil {
			return nil, err
		}
		if spec.Counter != "" && domain != ev.Domain {
			return nil, fmt.Errorf("perfctr: event %s is a %s event, cannot go on counter %s",
				spec.Event, ev.Domain, spec.Counter)
		}
		switch ev.Domain {
		case hwdef.DomainFixed:
			// Already always counted.
		case hwdef.DomainPMC:
			if err := addPMC(spec.Event, ev, slot); err != nil {
				return nil, err
			}
		case hwdef.DomainUncore:
			if err := addUncore(spec.Event, ev, slot); err != nil {
				return nil, err
			}
		}
		c.order = append(c.order, spec.Event)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(c.sets) == 0 {
		c.sets = []eventSet{{}}
	}
	for i, set := range c.sets {
		for _, e := range set.pmc {
			c.setOf[e.Name] = i
		}
		for _, e := range set.uncore {
			c.setOf[e.Name] = i
		}
	}

	// Display order: mandatory events first, as in the paper's listing.
	front := []string{}
	for _, name := range mandatory {
		if !dup[name] {
			front = append(front, name)
		}
	}
	c.order = append(front, c.order...)
	n := len(c.cpus)
	for _, name := range c.order {
		c.acc[name] = make([]float64, n)
	}
	c.setActive = make([]float64, len(c.sets))
	return c, nil
}

// parseCounter parses "PMC2" / "FIXC0" / "UPMC3"; empty means auto.
func parseCounter(s string) (int, hwdef.CounterDomain, error) {
	if s == "" {
		return -1, hwdef.DomainPMC, nil
	}
	for prefix, dom := range map[string]hwdef.CounterDomain{
		"UPMC": hwdef.DomainUncore, "FIXC": hwdef.DomainFixed, "PMC": hwdef.DomainPMC,
	} {
		if strings.HasPrefix(s, prefix) {
			var n int
			if _, err := fmt.Sscanf(s[len(prefix):], "%d", &n); err != nil || n < 0 {
				return 0, 0, fmt.Errorf("perfctr: bad counter name %q", s)
			}
			return n, dom, nil
		}
	}
	return 0, 0, fmt.Errorf("perfctr: bad counter name %q", s)
}

// NumSets reports the number of multiplex sets (1 = no multiplexing).
func (c *Collector) NumSets() int { return len(c.sets) }

// EventNames returns the measured events in display order.
func (c *Collector) EventNames() []string { return append([]string(nil), c.order...) }

// CPUs returns the measured processors.
func (c *Collector) CPUs() []int { return append([]int(nil), c.cpus...) }

// cpuIndex maps a cpu to its column.
func (c *Collector) cpuIndex(cpu int) int {
	for i, v := range c.cpus {
		if v == cpu {
			return i
		}
	}
	return -1
}

// Start programs the first event set and begins counting.  When more than
// one set exists, a machine slice hook rotates them round-robin.
func (c *Collector) Start() error {
	if c.active {
		return fmt.Errorf("perfctr: collector already running")
	}
	c.active = true
	c.current = 0
	c.startTime = c.M.Now()
	c.lastSwitch = c.startTime
	for i := range c.setActive {
		c.setActive[i] = 0
	}
	for name := range c.acc {
		for i := range c.acc[name] {
			c.acc[name][i] = 0
		}
	}
	if err := c.program(c.sets[0]); err != nil {
		return err
	}
	if len(c.sets) > 1 {
		c.M.AddSliceHook(c.muxHook)
	}
	return nil
}

// muxHook rotates event sets on the multiplex interval.
func (c *Collector) muxHook(now float64) {
	if !c.active || len(c.sets) < 2 {
		return
	}
	if now-c.lastSwitch < c.muxInterval {
		return
	}
	c.harvest()
	c.current = (c.current + 1) % len(c.sets)
	_ = c.program(c.sets[c.current])
}

// Stop harvests the final counts and disables the counters.
func (c *Collector) Stop() error {
	if !c.active {
		return fmt.Errorf("perfctr: collector not running")
	}
	c.harvest()
	c.unprogram()
	c.active = false
	return nil
}

// harvest reads and accumulates the current set's counters, then zeroes
// them, charging the active time to the set.
func (c *Collector) harvest() {
	now := c.M.Now()
	c.setActive[c.current] += now - c.lastSwitch
	c.lastSwitch = now

	set := c.sets[c.current]
	for _, cpu := range c.cpus {
		dev, err := c.M.MSRs.Open(cpu)
		if err != nil {
			continue
		}
		idx := c.cpuIndex(cpu)
		for _, e := range c.fixed {
			v, err := dev.Read(msr.IA32FixedCtr0 + uint32(e.Slot))
			if err == nil {
				c.acc[e.Name][idx] += float64(v)
				_ = dev.Write(msr.IA32FixedCtr0+uint32(e.Slot), 0)
			}
		}
		for _, e := range set.pmc {
			reg := c.pmcReg(e.Slot)
			v, err := dev.Read(reg)
			if err == nil {
				c.acc[e.Name][idx] += float64(v)
				_ = dev.Write(reg, 0)
			}
		}
	}
	// Uncore: socket leaders only (socket lock).
	for _, leader := range c.leaders {
		dev, err := c.M.MSRs.Open(leader)
		if err != nil {
			continue
		}
		idx := c.cpuIndex(leader)
		for _, e := range set.uncore {
			v, err := dev.Read(msr.UncPMC + uint32(e.Slot))
			if err == nil {
				c.acc[e.Name][idx] += float64(v)
				_ = dev.Write(msr.UncPMC+uint32(e.Slot), 0)
			}
		}
	}
}

func (c *Collector) pmcReg(slot int) uint32 {
	if c.M.Arch.Vendor == hwdef.AMD {
		return msr.AMDPMC0 + uint32(slot)
	}
	return msr.IA32PMC0 + uint32(slot)
}

func (c *Collector) evtselReg(slot int) uint32 {
	if c.M.Arch.Vendor == hwdef.AMD {
		return msr.AMDPerfEvtSel0 + uint32(slot)
	}
	return msr.IA32PerfEvtSel0 + uint32(slot)
}

// program writes the event selections of one set and enables counting.
func (c *Collector) program(set eventSet) error {
	arch := c.M.Arch
	for _, cpu := range c.cpus {
		dev, err := c.M.MSRs.Open(cpu)
		if err != nil {
			return err
		}
		// Clear previous PMC programming.
		for slot := 0; slot < arch.NumPMC; slot++ {
			if err := dev.Write(c.evtselReg(slot), 0); err != nil {
				return err
			}
			if err := dev.Write(c.pmcReg(slot), 0); err != nil {
				return err
			}
		}
		var globalMask uint64
		for _, e := range set.pmc {
			if err := dev.Write(c.evtselReg(e.Slot), msr.EvtselEncode(e.Ev.Code, e.Ev.Umask)); err != nil {
				return err
			}
			globalMask |= 1 << uint(e.Slot)
		}
		if arch.Vendor == hwdef.Intel {
			if arch.HasFixedCtr {
				var ctrl uint64
				for _, e := range c.fixed {
					ctrl |= 0x3 << (4 * uint(e.Slot))
					if err := dev.Write(msr.IA32FixedCtr0+uint32(e.Slot), 0); err != nil {
						return err
					}
					globalMask |= 1 << (32 + uint(e.Slot))
				}
				if err := dev.Write(msr.IA32FixedCtrCtrl, ctrl); err != nil {
					return err
				}
			}
			if err := dev.Write(msr.IA32PerfGlobalCtl, globalMask); err != nil {
				return err
			}
		}
	}
	// Uncore programming through the socket leaders.
	if len(set.uncore) > 0 {
		for _, leader := range c.leaders {
			dev, err := c.M.MSRs.Open(leader)
			if err != nil {
				return err
			}
			var mask uint64
			for _, e := range set.uncore {
				if err := dev.Write(msr.UncPerfEvtSel+uint32(e.Slot), msr.EvtselEncode(e.Ev.Code, e.Ev.Umask)); err != nil {
					return err
				}
				if err := dev.Write(msr.UncPMC+uint32(e.Slot), 0); err != nil {
					return err
				}
				mask |= 1 << uint(e.Slot)
			}
			if err := dev.Write(msr.UncGlobalCtl, mask); err != nil {
				return err
			}
		}
	} else if arch.NumUncore > 0 {
		for _, leader := range c.leaders {
			dev, err := c.M.MSRs.Open(leader)
			if err != nil {
				return err
			}
			if err := dev.Write(msr.UncGlobalCtl, 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// unprogram disables all counting.
func (c *Collector) unprogram() {
	arch := c.M.Arch
	for _, cpu := range c.cpus {
		dev, err := c.M.MSRs.Open(cpu)
		if err != nil {
			continue
		}
		for slot := 0; slot < arch.NumPMC; slot++ {
			_ = dev.Write(c.evtselReg(slot), 0)
		}
		if arch.Vendor == hwdef.Intel {
			_ = dev.Write(msr.IA32PerfGlobalCtl, 0)
			if arch.HasFixedCtr {
				_ = dev.Write(msr.IA32FixedCtrCtrl, 0)
			}
		}
	}
	if arch.NumUncore > 0 {
		for _, leader := range c.leaders {
			if dev, err := c.M.MSRs.Open(leader); err == nil {
				_ = dev.Write(msr.UncGlobalCtl, 0)
			}
		}
	}
}

// Results holds the measured counts.
type Results struct {
	CPUs     []int
	Events   []string
	Counts   map[string][]float64 // event -> value per cpu column
	WallTime float64              // measured interval in simulated seconds
	Scaled   bool                 // true when multiplex extrapolation applied
}

// Read returns the accumulated counts.  With multiplexing, counts of
// rotated sets are linearly extrapolated from their active time share —
// which is where the paper's warning about short measurements carrying
// large statistical errors comes from.
func (c *Collector) Read() Results {
	wall := c.M.Now() - c.startTime
	r := Results{
		CPUs:     c.CPUs(),
		Events:   c.EventNames(),
		Counts:   map[string][]float64{},
		WallTime: wall,
		Scaled:   len(c.sets) > 1,
	}
	for name, vals := range c.acc {
		scaled := make([]float64, len(vals))
		scale := 1.0
		if si, ok := c.setOf[name]; ok && len(c.sets) > 1 {
			scale = multiplexScale(wall, c.setActive[si])
		}
		for i, v := range vals {
			scaled[i] = v * scale
		}
		r.Counts[name] = scaled
	}
	return r
}
