// Package jacobi models the paper's second and third case studies: an
// iterative 3D Jacobi smoother with a 7-point stencil, built on POSIX
// threads, in three variants (§IV-B, §IV-C):
//
//   - Threaded: straightforward domain decomposition with temporal stores.
//     Every lattice-site update (LUP) reads the source line, write-allocates
//     and writes back the destination: 24 B/LUP of memory traffic.
//   - ThreadedNT: the same with non-temporal stores, eliminating the write
//     allocate: 16 B/LUP ("nontemporal stores save about 1/3 of the data
//     transfer volume").
//   - Wavefront: temporal blocking via pipeline-parallel processing [8]:
//     a thread group passes blocks through the shared L3, so only the
//     leading stream touches memory (~5.3 B/LUP), but a single stream
//     cannot saturate the bus — which is why the 4.5-fold traffic
//     reduction buys only a 1.7× speedup (Table II discussion).
//
// Placement is everything for the wavefront variant (Fig. 11): the thread
// group must share one L3.  Splitting the pipeline across sockets destroys
// the cache coupling — intermediate hand-offs cross QPI and go through
// memory — and performance drops below the naive threaded baseline.
package jacobi

import (
	"fmt"

	"likwid/internal/hwdef"
	"likwid/internal/machine"
	"likwid/internal/sched"
)

// Variant selects the stencil implementation.
type Variant int

// The three code versions of Table II.
const (
	Threaded Variant = iota
	ThreadedNT
	Wavefront
)

// String names the variant as in Table II.
func (v Variant) String() string {
	switch v {
	case ThreadedNT:
		return "threaded (NT)"
	case Wavefront:
		return "blocked"
	default:
		return "threaded"
	}
}

// Placement selects the thread-core mapping of Fig. 11.
type Placement int

// Placements.
const (
	// OneSocket pins the thread group to the physical cores of socket 0
	// (likwid-pin -c 0-3): the wavefront's shared-L3 coupling works.
	OneSocket Placement = iota
	// SplitPairs pins pairs of threads to different sockets: the
	// hazardous mapping of Fig. 11 (squares).
	SplitPairs
)

// Config is one Jacobi run.
type Config struct {
	Arch      *hwdef.Arch
	Variant   Variant
	Size      int // cubic grid edge length
	Iters     int // sweeps over the grid
	Threads   int // worker threads (4 in the paper's runs)
	Placement Placement
	Seed      int64
}

// Result of one run.
type Result struct {
	MLUPS      float64 // million lattice-site updates per second
	ElapsedSec float64
	LUPs       float64
}

// LUPs returns the total lattice updates of a configuration.
func (cfg Config) LUPs() float64 {
	n := float64(cfg.Size)
	return n * n * n * float64(cfg.Iters)
}

// TableIIConfig returns the configuration reproducing Table II: the
// wavefront sweet spot around N=300 with enough sweeps for ≈3.1e9 LUPs.
func TableIIConfig(a *hwdef.Arch, v Variant) Config {
	return Config{Arch: a, Variant: v, Size: 300, Iters: 116, Threads: 4, Placement: OneSocket}
}

// model builds the per-LUP cost vector and the pipeline efficiency for a
// configuration.  It is calibrated against Table II (TestTableIIPerformance
// and TestTableIIRatios hold it there); the building blocks:
//
//   - L3 fit: when both grids fit the shared L3 the memory traffic
//     disappears and the run is L3/core bound (small sizes in Fig. 11).
//   - Wavefront fill: the pipeline needs N wavefronts to fill/drain per
//     block, an efficiency of roughly N/(N+60) that costs core cycles.
//   - Block shrink: larger grids shrink the temporal block, growing the
//     wavefront's residual memory traffic.
func (cfg Config) model() (pe machine.PerElem, eff float64, err error) {
	if cfg.Size < 8 {
		return pe, 0, fmt.Errorf("jacobi: grid size %d too small", cfg.Size)
	}
	n := float64(cfg.Size)
	footprint := 2 * 8 * n * n * n // two grids of doubles
	llc, ok := cfg.Arch.LastLevelCache()
	if !ok {
		return pe, 0, fmt.Errorf("jacobi: %s has no last-level cache", cfg.Arch.Name)
	}
	fit := 0.9 * float64(llc.Size()) / footprint
	if fit > 1 {
		fit = 1
	}
	mem := 1 - fit

	eff = 1
	switch cfg.Variant {
	case Threaded:
		pe = machine.PerElem{
			Cycles:        1.8,
			MemReadBytes:  16 * mem, // source line + write allocate
			MemWriteBytes: 8 * mem,  // write-back
			L3Bytes:       24,
			Streams:       3,
			Vector:        true,
		}
	case ThreadedNT:
		pe = machine.PerElem{
			Cycles:       1.8,
			MemReadBytes: 8 * mem, // source line only
			MemNTBytes:   8,       // NT stores always go to memory
			L3Bytes:      16,
			Streams:      2,
			Vector:       true,
		}
	case Wavefront:
		eff = n / (n + 60) // pipeline fill/drain, boundary sync
		if cfg.Placement == SplitPairs {
			// The shared-L3 coupling is gone: intermediate hand-offs
			// bounce through memory with threaded-like traffic, and the
			// cross-socket loads throttle each core's fill buffers by
			// the QPI latency (the engine's remote bandwidth cap).
			pe = machine.PerElem{
				Cycles:         4.0,
				MemReadBytes:   16,
				MemWriteBytes:  8,
				RemoteFraction: 0.6,
				L3Bytes:        24,
				Streams:        2,
				Vector:         true,
			}
			break
		}
		// Correct pinning: only the leading stream misses to memory —
		// one stream for the whole thread group, expressed as a group
		// bandwidth cap split across the workers.  Larger grids shrink
		// the temporal block and leak more traffic.
		growth := 1.0
		if n > 350 {
			growth += 0.15 * (n - 350) / 150
		}
		pe = machine.PerElem{
			Cycles:        4.0,
			MemReadBytes:  2.65 * growth * mem,
			MemWriteBytes: 2.63 * growth * mem,
			L3Bytes:       24,
			Streams:       1,
			MemBWCap:      cfg.Arch.Perf.SingleStreamBW / float64(cfg.Threads),
			Vector:        true,
		}
	default:
		return pe, 0, fmt.Errorf("jacobi: unknown variant %d", cfg.Variant)
	}

	// Shared per-LUP instruction profile of the assembly kernels.
	pe.Counts = machine.Counts{
		machine.EvInstr:         12,
		machine.EvFlopsPackedDP: 3, // 6 flops/LUP packed
		machine.EvFlopsScalarDP: 1, // boundary remainder
		machine.EvLoads:         7,
		machine.EvStores:        1,
		machine.EvL1LinesIn:     24.0 / 64,
		machine.EvL2LinesIn:     24.0 / 64,
	}
	return pe, eff, nil
}

// cpuList returns the pin targets for the placement.
func (cfg Config) cpuList() ([]int, error) {
	a := cfg.Arch
	switch cfg.Placement {
	case SplitPairs:
		if a.Sockets < 2 {
			return nil, fmt.Errorf("jacobi: split placement needs two sockets")
		}
		var cpus []int
		half := cfg.Threads / 2
		for i := 0; i < half; i++ {
			cpus = append(cpus, i) // socket 0 physical cores
		}
		for i := 0; i < cfg.Threads-half; i++ {
			cpus = append(cpus, a.CoresPerSocket+i) // socket 1
		}
		return cpus, nil
	default:
		if cfg.Threads > a.CoresPerSocket {
			return nil, fmt.Errorf("jacobi: %d threads exceed one socket (%d cores)", cfg.Threads, a.CoresPerSocket)
		}
		var cpus []int
		for i := 0; i < cfg.Threads; i++ {
			cpus = append(cpus, i)
		}
		return cpus, nil
	}
}

// Instance is a prepared run: workloads can be executed on an externally
// owned machine so likwid-perfCtr can measure them (Table II).
type Instance struct {
	M     *machine.Machine
	Team  *sched.Team
	Works []*machine.ThreadWork
	cfg   Config
}

// Prepare builds the thread team (pinned per the placement) and the work
// descriptions on the given machine; a nil machine gets a fresh one.
func Prepare(cfg Config, m *machine.Machine) (*Instance, error) {
	if cfg.Threads < 1 {
		return nil, fmt.Errorf("jacobi: need at least one thread")
	}
	if cfg.Iters < 1 {
		return nil, fmt.Errorf("jacobi: need at least one iteration")
	}
	if m == nil {
		m = machine.New(cfg.Arch, machine.Options{Policy: sched.PolicySpread, Seed: cfg.Seed})
	}
	pe, eff, err := cfg.model()
	if err != nil {
		return nil, err
	}
	cpus, err := cfg.cpuList()
	if err != nil {
		return nil, err
	}

	master := m.OS.Spawn("jacobi", nil)
	team, err := sched.SpawnTeam(m.OS, sched.RuntimePthreads, cfg.Threads, master, nil)
	if err != nil {
		return nil, err
	}
	for i, w := range team.Workers {
		if err := m.OS.Pin(w, cpus[i%len(cpus)]); err != nil {
			return nil, err
		}
	}

	// Pipeline efficiency: inflate the element count so fill/drain
	// bubbles cost core time, and scale the per-element quantities down
	// so event totals and traffic stay exact per true LUP.
	lups := cfg.LUPs()
	elemsPerThread := lups / eff / float64(cfg.Threads)
	scaled := pe
	scaled.MemReadBytes *= eff
	scaled.MemWriteBytes *= eff
	scaled.MemNTBytes *= eff
	scaled.L3Bytes *= eff
	for k := range scaled.Counts {
		scaled.Counts[k] *= eff
	}

	works := make([]*machine.ThreadWork, len(team.Workers))
	for i, w := range team.Workers {
		works[i] = &machine.ThreadWork{Task: w, Elems: elemsPerThread, PerElem: scaled}
	}
	return &Instance{M: m, Team: team, Works: works, cfg: cfg}, nil
}

// Run executes the prepared instance.
func (in *Instance) Run() (Result, error) {
	elapsed := in.M.RunPhase(in.Works, 0)
	if elapsed <= 0 {
		return Result{}, fmt.Errorf("jacobi: zero elapsed time")
	}
	lups := in.cfg.LUPs()
	return Result{
		MLUPS:      lups / elapsed / 1e6,
		ElapsedSec: elapsed,
		LUPs:       lups,
	}, nil
}

// Run prepares and executes in one step on a fresh machine.
func Run(cfg Config) (Result, error) {
	in, err := Prepare(cfg, nil)
	if err != nil {
		return Result{}, err
	}
	return in.Run()
}
