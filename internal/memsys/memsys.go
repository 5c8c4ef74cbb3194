// Package memsys models the ccNUMA memory system of a node: one integrated
// memory controller per socket with a finite sustained bandwidth, max-min
// fair arbitration among the cores that demand it, a bandwidth penalty for
// remote (cross-socket) traffic, and reduced bus efficiency for
// non-temporal store streams.
//
// The model captures the two effects the paper's case studies hinge on:
//
//   - Saturation: a few streaming cores saturate a socket's controller, so
//     unpinned placements that land all threads on one socket halve the
//     STREAM bandwidth (Figs. 4-10).
//   - Single-stream limit: one load stream cannot saturate the bus, which
//     is why the temporally blocked Jacobi's 4.5× traffic reduction buys
//     only a 1.7× speedup (Table II discussion).
package memsys

import (
	"fmt"

	"likwid/internal/hwdef"
)

// Demand is one task's memory-bandwidth request for a time slice.
type Demand struct {
	Task       int     // opaque task identifier, echoed in the grant
	HomeSocket int     // socket whose controller owns the pages (first touch)
	FromSocket int     // socket the requesting core sits on
	Bytes      float64 // demanded bandwidth in bytes/s
	NTFraction float64 // fraction of the traffic that is non-temporal stores
}

// Grant is the arbitrated bandwidth for one demand.
type Grant struct {
	Task  int
	Bytes float64 // granted bandwidth in bytes/s
}

// System is the memory system of one node.
type System struct {
	arch *hwdef.Arch
}

// New builds the memory system for an architecture.
func New(a *hwdef.Arch) *System { return &System{arch: a} }

// Arbitrate distributes controller bandwidth across the demands of one time
// slice and appends one grant per demand, in demand order, to dst.
//
// Algorithm: demands are grouped by home controller and water-filled
// (max-min fairness) against the controller's capacity.  A demand's
// *effective* capacity cost is inflated by the NT-store efficiency factor
// and by the remote-access penalty when the requesting core is on a
// different socket than the memory.
func (s *System) Arbitrate(dst []Grant, demands []Demand) []Grant {
	start := len(dst)
	for _, d := range demands {
		dst = append(dst, Grant{Task: d.Task})
	}
	grants := dst[start:]
	for i, d := range demands {
		if firstOfHome(demands, i) {
			home := d.HomeSocket
			// Water-fill the home's demands in capacity units, holding
			// each grant in its Bytes until converted below.
			fill(s.arch.Perf.SocketMemBW, len(demands), func(j int) float64 {
				if demands[j].HomeSocket != home {
					return 0
				}
				return s.effectiveCost(demands[j])
			}, func(j int) *float64 { return &grants[j].Bytes })
		}
	}
	for i, d := range demands {
		eff := s.effectiveCost(d)
		if eff <= 0 {
			continue
		}
		// Convert the granted capacity back to payload bytes.
		grants[i].Bytes *= d.Bytes / eff
	}
	return dst
}

// firstOfHome reports whether demands[i] is the first demand on its home
// controller.
func firstOfHome(demands []Demand, i int) bool {
	for _, d := range demands[:i] {
		if d.HomeSocket == demands[i].HomeSocket {
			return false
		}
	}
	return true
}

// effectiveCost converts a payload demand into controller-capacity units.
func (s *System) effectiveCost(d Demand) float64 {
	if d.Bytes <= 0 {
		return 0
	}
	cost := d.Bytes
	if nt := clamp01(d.NTFraction); nt > 0 {
		// NT streams use the bus less efficiently; the controller burns
		// proportionally more capacity per payload byte.
		ntEff := s.arch.Perf.NTStoreEfficiency
		cost = d.Bytes * ((1 - nt) + nt/ntEff)
	}
	if d.FromSocket != d.HomeSocket {
		// Remote traffic crosses the socket interconnect.
		cost /= s.arch.Perf.RemoteFactor
	}
	return cost
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Waterfill implements max-min fair sharing: capacity is divided equally
// among unsatisfied demands, freed slack is redistributed, and no demand
// receives more than it asked for.  It appends the grant per demand to dst.
func Waterfill(dst []float64, capacity float64, demands []float64) []float64 {
	start := len(dst)
	dst = append(dst, make([]float64, len(demands))...)
	grants := dst[start:]
	fill(capacity, len(demands), func(i int) float64 { return demands[i] },
		func(i int) *float64 { return &grants[i] })
	return dst
}

// fill water-fills capacity over n demands, want(i) each (≤ 0: none),
// into the zeroed grants *got(i).  Rounds visit the demands in index
// order.  A demand is unsatisfied while its grant is still zero: grants
// change only when a demand is met in full, or in the last round, when
// every unsatisfied demand takes an equal share and the capacity is gone.
func fill(capacity float64, n int, want func(int) float64, got func(int) *float64) {
	if capacity <= 0 {
		return
	}
	remaining := capacity
	unsatisfied := func(i int) bool { return want(i) > 0 && *got(i) == 0 }
	for remaining > 1e-9 {
		active := 0
		for i := 0; i < n; i++ {
			if unsatisfied(i) {
				active++
			}
		}
		if active == 0 {
			return
		}
		share := remaining / float64(active)
		progressed := false
		for i := 0; i < n; i++ {
			if !unsatisfied(i) {
				continue
			}
			if need := want(i); need <= share {
				*got(i) = need
				remaining -= need
				progressed = true
			}
		}
		if !progressed {
			// Everyone still needs at least a full share: hand it out.
			for i := 0; i < n; i++ {
				if unsatisfied(i) {
					*got(i) += share
				}
			}
			remaining = 0
		}
	}
}

// SingleStreamCap returns the per-task bandwidth ceiling implied by its
// concurrency: a single leading stream cannot saturate the controller.
// Vectorized multi-stream kernels reach CoreTriadBW, scalar ones
// CoreScalarBW.
func (s *System) SingleStreamCap(streams int, vector bool) float64 {
	p := s.arch.Perf
	if streams <= 1 {
		return p.SingleStreamBW
	}
	if vector {
		return p.CoreTriadBW
	}
	return p.CoreScalarBW
}

// Validate sanity-checks the model parameters.
func (s *System) Validate() error {
	p := s.arch.Perf
	if p.SocketMemBW <= 0 {
		return fmt.Errorf("memsys: %s has no controller bandwidth", s.arch.Name)
	}
	if p.NTStoreEfficiency <= 0 || p.NTStoreEfficiency > 1 {
		return fmt.Errorf("memsys: %s NT efficiency %v out of (0,1]", s.arch.Name, p.NTStoreEfficiency)
	}
	return nil
}
