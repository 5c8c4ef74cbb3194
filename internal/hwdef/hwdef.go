// Package hwdef holds the architecture definitions for every processor the
// suite models: socket/core/SMT geometry, cache hierarchies, performance
// event tables, counter inventories, and the calibrated memory-system
// parameters used by the machine model.
//
// hwdef is the single source of truth about a processor.  The cpuid package
// synthesizes CPUID register images from an Arch; the topology tool then
// decodes those images without ever looking at hwdef directly, mirroring how
// the real likwid-topology only sees the cpuid instruction.
package hwdef

import "fmt"

// Vendor identifies the processor manufacturer, mirroring the CPUID vendor
// string ("GenuineIntel" / "AuthenticAMD").
type Vendor int

// Supported vendors.
const (
	Intel Vendor = iota
	AMD
)

// String returns the CPUID vendor identification string.
func (v Vendor) String() string {
	switch v {
	case Intel:
		return "GenuineIntel"
	case AMD:
		return "AuthenticAMD"
	default:
		return "UnknownVendor"
	}
}

// CacheType classifies a cache level as data, instruction, or unified,
// following the encoding of CPUID leaf 0x4.
type CacheType int

// Cache types in CPUID leaf 0x4 order (1=data, 2=instruction, 3=unified).
const (
	DataCache CacheType = iota + 1
	InstructionCache
	UnifiedCache
)

// String returns the human-readable cache type used in topology reports.
func (t CacheType) String() string {
	switch t {
	case DataCache:
		return "Data cache"
	case InstructionCache:
		return "Instruction cache"
	case UnifiedCache:
		return "Unified cache"
	default:
		return "Unknown cache"
	}
}

// CacheLevel describes one level of the cache hierarchy of a single
// hardware-thread group.  Sets*Assoc*LineSize must equal SizeKB*1024.
type CacheLevel struct {
	Level     int       // 1-based cache level
	Type      CacheType // data / instruction / unified
	SizeKB    int       // total capacity in KiB
	Assoc     int       // ways of associativity
	LineSize  int       // line size in bytes
	Sets      int       // number of sets
	Inclusive bool      // inclusive of lower levels
	SharedBy  int       // number of hardware threads sharing one instance
}

// Size returns the capacity in bytes.
func (c CacheLevel) Size() int { return c.SizeKB * 1024 }

// Validate checks the internal consistency of the geometry.
func (c CacheLevel) Validate() error {
	if c.Sets*c.Assoc*c.LineSize != c.Size() {
		return fmt.Errorf("cache L%d: sets(%d)*assoc(%d)*line(%d) != size(%d)",
			c.Level, c.Sets, c.Assoc, c.LineSize, c.Size())
	}
	if c.SharedBy < 1 {
		return fmt.Errorf("cache L%d: SharedBy must be >= 1", c.Level)
	}
	return nil
}

// CounterDomain says which class of hardware counter an event can be
// scheduled on.
type CounterDomain int

// Counter domains.
const (
	DomainPMC    CounterDomain = iota // general-purpose programmable core counter
	DomainFixed                       // architectural fixed counter (Intel)
	DomainUncore                      // per-socket uncore counter (Nehalem and later)
)

// String names the domain as used in counter assignment listings.
func (d CounterDomain) String() string {
	switch d {
	case DomainPMC:
		return "PMC"
	case DomainFixed:
		return "FIXC"
	case DomainUncore:
		return "UPMC"
	default:
		return "?"
	}
}

// Event is one hardware performance event as documented in the vendor
// manuals: a name, the event-select code and unit mask programmed into a
// PERFEVTSEL register, and the counter domain it can be counted on.
type Event struct {
	Name   string
	Code   uint16
	Umask  uint8
	Domain CounterDomain
	// FixedIndex is the fixed-counter slot for DomainFixed events
	// (0 = INSTR_RETIRED_ANY, 1 = CPU_CLK_UNHALTED_CORE, 2 = CPU_CLK_UNHALTED_REF).
	FixedIndex int
}

// EncodesAs returns the 16-bit (umask<<8|code) selector value used when the
// event is programmed into an event-select register.
func (e Event) EncodesAs() uint16 { return uint16(e.Umask)<<8 | e.Code&0xFF }

// Prefetcher identifies one togglable hardware prefetch unit.
type Prefetcher struct {
	Name string // LIKWID feature name, e.g. "HW_PREFETCHER"
	// MiscEnableBit is the bit position in IA32_MISC_ENABLE controlling it.
	// Note: set bit means *disabled* for these units, as on real hardware.
	MiscEnableBit uint
}

// PerfModel carries the calibrated machine-model parameters that drive the
// simulated memory system and execution engine.  These numbers are fitted to
// the published measurements for each system (the PerfModels of the
// paper's three test systems in archs.go name the figure or table each
// was calibrated against), not to a specific DIMM configuration.
type PerfModel struct {
	// SocketMemBW is the per-socket sustained memory bandwidth in bytes/s
	// achievable by multiple concurrent streams (saturated triad).
	SocketMemBW float64
	// CoreTriadBW is the bandwidth one core can extract running the
	// vectorized STREAM triad, bytes/s (limited by line-fill buffers).
	CoreTriadBW float64
	// CoreScalarBW is the same for non-vectorized (scalar) code.
	CoreScalarBW float64
	// SingleStreamBW is the bandwidth of a single leading load stream,
	// bytes/s; one stream cannot saturate the memory bus (Table II).
	SingleStreamBW float64
	// L3BW is the aggregate L3 bandwidth per socket, bytes/s.
	L3BW float64
	// RemoteFactor scales bandwidth for accesses to the remote NUMA node
	// (QPI / HyperTransport penalty), 0 < RemoteFactor <= 1.
	RemoteFactor float64
	// SMTVectorGain is the throughput multiplier from running two SMT
	// threads of dense vectorized code on one core (close to 1).
	SMTVectorGain float64
	// SMTScalarGain is the multiplier for sparse scalar code, which has
	// more latency to hide (noticeably above 1).
	SMTScalarGain float64
	// NTStoreEfficiency scales the effective bus utilization of
	// non-temporal store streams relative to regular streams.
	NTStoreEfficiency float64
	// OversubscribePenalty is the fractional throughput lost per extra
	// task timesharing one hardware thread (context switching, cache
	// thrash).
	OversubscribePenalty float64
}

// Arch is the complete definition of one processor microarchitecture
// instantiated as a node (one or more sockets).
type Arch struct {
	Name           string // registry key, e.g. "westmereEP"
	ModelName      string // marketing/topology name printed by the tools
	Vendor         Vendor
	Family         int // CPUID display family
	Model          int // CPUID display model
	Stepping       int
	ClockMHz       float64
	Sockets        int
	CoresPerSocket int
	ThreadsPerCore int
	// PhysCoreIDs are the physical (APIC-derived) core IDs within a
	// socket.  They are frequently non-contiguous on real silicon, e.g.
	// {0,1,2,8,9,10} on Westmere EP; the topology tool must report them
	// verbatim.
	PhysCoreIDs []int
	Caches      []CacheLevel

	// Counter inventory.
	NumPMC      int  // general-purpose counters per hardware thread
	HasFixedCtr bool // architectural fixed counters present (Intel Core2+)
	NumUncore   int  // uncore counters per socket (0 when absent)

	// CPUID capability switches steering the topology decode path.
	HasLeafB   bool // extended topology leaf 0xB (Nehalem and later)
	HasLeaf4   bool // deterministic cache parameters (Core 2 and later)
	UsesLeaf2  bool // descriptor-table cache reporting (Pentium M era)
	MaxLeaf    uint32
	MaxExtLeaf uint32

	Events      map[string]Event
	Prefetchers []Prefetcher
	Perf        PerfModel
}

// HWThreads returns the total number of hardware threads in the node.
func (a *Arch) HWThreads() int { return a.Sockets * a.CoresPerSocket * a.ThreadsPerCore }

// Cores returns the total number of physical cores in the node.
func (a *Arch) Cores() int { return a.Sockets * a.CoresPerSocket }

// ClockHz returns the core clock in Hz.
func (a *Arch) ClockHz() float64 { return a.ClockMHz * 1e6 }

// EventByName looks up an event in the architecture's event table.
func (a *Arch) EventByName(name string) (Event, error) {
	ev, ok := a.Events[name]
	if !ok {
		return Event{}, fmt.Errorf("event %q not defined for %s", name, a.Name)
	}
	return ev, nil
}

// Validate checks structural consistency of the definition.
func (a *Arch) Validate() error {
	if a.Sockets < 1 || a.CoresPerSocket < 1 || a.ThreadsPerCore < 1 {
		return fmt.Errorf("%s: invalid geometry %d/%d/%d", a.Name, a.Sockets, a.CoresPerSocket, a.ThreadsPerCore)
	}
	if len(a.PhysCoreIDs) != a.CoresPerSocket {
		return fmt.Errorf("%s: PhysCoreIDs has %d entries, want %d", a.Name, len(a.PhysCoreIDs), a.CoresPerSocket)
	}
	seen := make(map[int]bool, len(a.PhysCoreIDs))
	for _, id := range a.PhysCoreIDs {
		if id < 0 {
			return fmt.Errorf("%s: negative physical core id %d", a.Name, id)
		}
		if seen[id] {
			return fmt.Errorf("%s: duplicate physical core id %d", a.Name, id)
		}
		seen[id] = true
	}
	for _, c := range a.Caches {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		if c.SharedBy > a.HWThreads() {
			return fmt.Errorf("%s: cache L%d shared by %d threads, node has %d", a.Name, c.Level, c.SharedBy, a.HWThreads())
		}
	}
	for name, ev := range a.Events {
		if name != ev.Name {
			return fmt.Errorf("%s: event map key %q != event name %q", a.Name, name, ev.Name)
		}
		if ev.Domain == DomainFixed && !a.HasFixedCtr {
			return fmt.Errorf("%s: fixed event %s on arch without fixed counters", a.Name, name)
		}
		if ev.Domain == DomainUncore && a.NumUncore == 0 {
			return fmt.Errorf("%s: uncore event %s on arch without uncore counters", a.Name, name)
		}
	}
	if a.Perf.SocketMemBW <= 0 || a.Perf.CoreTriadBW <= 0 {
		return fmt.Errorf("%s: performance model not calibrated", a.Name)
	}
	return nil
}

// DataCaches returns only the data-bearing (data or unified) cache levels,
// ordered by level.  These are the levels likwid-topology reports.
func (a *Arch) DataCaches() []CacheLevel {
	var out []CacheLevel
	for _, c := range a.Caches {
		if c.isData() {
			out = append(out, c)
		}
	}
	return out
}

// isData reports whether a cache level holds data (data or unified).
func (c CacheLevel) isData() bool { return c.Type == DataCache || c.Type == UnifiedCache }

// CacheAt returns the data/unified cache at the given level, if present.
func (a *Arch) CacheAt(level int) (CacheLevel, bool) {
	for _, c := range a.Caches {
		if c.isData() && c.Level == level {
			return c, true
		}
	}
	return CacheLevel{}, false
}

// LastLevelCache returns the highest data/unified level.
func (a *Arch) LastLevelCache() (CacheLevel, bool) {
	var best CacheLevel
	found := false
	for _, c := range a.Caches {
		if c.isData() && (!found || c.Level > best.Level) {
			best, found = c, true
		}
	}
	return best, found
}
