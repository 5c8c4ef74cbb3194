package memsys

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"likwid/internal/hwdef"
)

func TestWaterfillUnderCapacity(t *testing.T) {
	g := Waterfill(nil, 100, []float64{10, 20, 30})
	for i, want := range []float64{10, 20, 30} {
		if math.Abs(g[i]-want) > 1e-9 {
			t.Errorf("grant[%d] = %v, want %v (everyone fits)", i, g[i], want)
		}
	}
}

func TestWaterfillOverCapacity(t *testing.T) {
	// Demands 10, 100, 100 against capacity 90: the small demand is
	// satisfied, the rest split the remainder equally.
	g := Waterfill(nil, 90, []float64{10, 100, 100})
	if math.Abs(g[0]-10) > 1e-9 {
		t.Errorf("small demand got %v, want 10", g[0])
	}
	if math.Abs(g[1]-40) > 1e-9 || math.Abs(g[2]-40) > 1e-9 {
		t.Errorf("big demands got %v/%v, want 40/40", g[1], g[2])
	}
}

func TestWaterfillZeroCapacity(t *testing.T) {
	g := Waterfill(nil, 0, []float64{5, 5})
	if g[0] != 0 || g[1] != 0 {
		t.Errorf("grants = %v, want zeros", g)
	}
}

func TestWaterfillProperties(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%8) + 1
		demands := make([]float64, k)
		for i := range demands {
			demands[i] = rng.Float64() * 50
		}
		capacity := rng.Float64() * 120
		g := Waterfill(nil, capacity, demands)
		var sum float64
		for i := range g {
			if g[i] < -1e-9 || g[i] > demands[i]+1e-9 {
				return false // grant within [0, demand]
			}
			sum += g[i]
		}
		if sum > capacity+1e-6 {
			return false // capacity respected
		}
		// Work conservation: either all demands met or capacity is used.
		var totalDemand float64
		for _, d := range demands {
			totalDemand += d
		}
		if totalDemand <= capacity {
			return math.Abs(sum-totalDemand) < 1e-6
		}
		return math.Abs(sum-capacity) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWaterfillFairnessMonotonic(t *testing.T) {
	// A smaller demand never receives more than a bigger one.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := []float64{rng.Float64() * 40, rng.Float64() * 40, rng.Float64() * 40}
		g := Waterfill(nil, 50, d)
		for i := range d {
			for j := range d {
				if d[i] <= d[j] && g[i] > g[j]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArbitrateSaturation(t *testing.T) {
	s := New(hwdef.WestmereEP)
	bw := hwdef.WestmereEP.Perf.SocketMemBW
	// Six streaming cores on socket 0 demanding 7 GB/s each: the socket
	// controller saturates and grants sum to its capacity.
	var demands []Demand
	for i := 0; i < 6; i++ {
		demands = append(demands, Demand{Task: i, HomeSocket: 0, FromSocket: 0, Bytes: 7e9})
	}
	grants := s.Arbitrate(nil, demands)
	var sum float64
	for _, g := range grants {
		sum += g.Bytes
	}
	if math.Abs(sum-bw) > bw*0.01 {
		t.Errorf("granted %v on a saturated socket, want ≈ %v", sum, bw)
	}
}

func TestArbitrateTwoSocketsIndependent(t *testing.T) {
	s := New(hwdef.WestmereEP)
	grants := s.Arbitrate(nil, []Demand{
		{Task: 0, HomeSocket: 0, FromSocket: 0, Bytes: 30e9},
		{Task: 1, HomeSocket: 1, FromSocket: 1, Bytes: 30e9},
	})
	bw := hwdef.WestmereEP.Perf.SocketMemBW
	for _, g := range grants {
		if math.Abs(g.Bytes-bw) > bw*0.01 {
			t.Errorf("task %d granted %v, want ≈ %v (own controller)", g.Task, g.Bytes, bw)
		}
	}
}

func TestArbitrateRemotePenalty(t *testing.T) {
	s := New(hwdef.WestmereEP)
	local := s.Arbitrate(nil, []Demand{{HomeSocket: 0, FromSocket: 0, Bytes: 30e9}})[0].Bytes
	remote := s.Arbitrate(nil, []Demand{{HomeSocket: 0, FromSocket: 1, Bytes: 30e9}})[0].Bytes
	if remote >= local {
		t.Fatalf("remote grant %v >= local %v; QPI penalty missing", remote, local)
	}
	want := local * hwdef.WestmereEP.Perf.RemoteFactor
	if math.Abs(remote-want) > want*0.05 {
		t.Errorf("remote grant %v, want ≈ %v", remote, want)
	}
}

func TestArbitrateNTStoresCostMore(t *testing.T) {
	s := New(hwdef.NehalemEP)
	reg := s.Arbitrate(nil, []Demand{{HomeSocket: 0, FromSocket: 0, Bytes: 30e9}})[0].Bytes
	nt := s.Arbitrate(nil, []Demand{{HomeSocket: 0, FromSocket: 0, Bytes: 30e9, NTFraction: 1}})[0].Bytes
	if nt >= reg {
		t.Fatalf("pure NT stream granted %v >= regular %v", nt, reg)
	}
	want := reg * hwdef.NehalemEP.Perf.NTStoreEfficiency
	if math.Abs(nt-want) > want*0.05 {
		t.Errorf("NT grant %v, want ≈ %v", nt, want)
	}
}

func TestSingleStreamCap(t *testing.T) {
	s := New(hwdef.NehalemEP)
	p := hwdef.NehalemEP.Perf
	if got := s.SingleStreamCap(1, true); got != p.SingleStreamBW {
		t.Errorf("1 stream cap = %v, want %v", got, p.SingleStreamBW)
	}
	if got := s.SingleStreamCap(3, true); got != p.CoreTriadBW {
		t.Errorf("vector cap = %v, want %v", got, p.CoreTriadBW)
	}
	if got := s.SingleStreamCap(3, false); got != p.CoreScalarBW {
		t.Errorf("scalar cap = %v, want %v", got, p.CoreScalarBW)
	}
}

func TestValidateAll(t *testing.T) {
	for _, n := range hwdef.Names() {
		a, _ := hwdef.Lookup(n)
		if err := New(a).Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}
