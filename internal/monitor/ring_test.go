package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

var ringMaxes = []int{1, 2, 3, 7, 8, 9, 64, 1000}

// ringModel is the reference a ring must agree with: a plain slice of
// the newest max values, oldest first.
type ringModel struct {
	vals []int
	max  int
}

func (m *ringModel) push(v int) (evicted int, full bool) {
	if len(m.vals) == m.max {
		evicted, full = m.vals[0], true
		m.vals = m.vals[1:]
	}
	m.vals = append(m.vals, v)
	return evicted, full
}

func (m *ringModel) reset(vs []int) {
	if len(vs) > m.max {
		vs = vs[len(vs)-m.max:]
	}
	m.vals = append([]int(nil), vs...)
}

// checkRing compares every observable of r with the model.
func checkRing(t *testing.T, r *ring[int], m *ringModel, step string) {
	t.Helper()
	if got := r.appendTo(nil); !slices.Equal(got, m.vals) {
		t.Fatalf("%s: appendTo = %v, want %v", step, got, m.vals)
	}
	v, ok := r.newest()
	if want := len(m.vals) > 0; ok != want || (ok && v != m.vals[len(m.vals)-1]) {
		t.Fatalf("%s: newest = %d, %v, want the last of %v", step, v, ok, m.vals)
	}
	if len(r.buf) > r.max {
		t.Fatalf("%s: len(buf) = %d exceeds max %d", step, len(r.buf), r.max)
	}
	if r.n != len(m.vals) {
		t.Fatalf("%s: n = %d, want %d", step, r.n, len(m.vals))
	}
}

func pushBoth(t *testing.T, r *ring[int], m *ringModel, v int, step string) {
	t.Helper()
	gotV, gotFull := r.push(v)
	wantV, wantFull := m.push(v)
	if gotV != wantV || gotFull != wantFull {
		t.Fatalf("%s: push(%d) = (%d, %v), want (%d, %v)", step, v, gotV, gotFull, wantV, wantFull)
	}
	checkRing(t, r, m, step)
}

func resetBoth(t *testing.T, r *ring[int], m *ringModel, vs []int, step string) {
	t.Helper()
	r.reset(vs)
	m.reset(vs)
	if len(r.buf) != len(m.vals) {
		t.Fatalf("%s: reset to %d values allocated %d slots", step, len(m.vals), len(r.buf))
	}
	checkRing(t, r, m, step)
}

// TestRingMatchesSliceModel drives rings of every interesting bound
// (below, at and above the growth floor, a power of two, a large odd
// one) through random push/reset sequences long enough to grow, fill
// and wrap several times, checking contents, newest value, eviction and
// the size bound after every step.
func TestRingMatchesSliceModel(t *testing.T) {
	for _, max := range ringMaxes {
		t.Run(fmt.Sprintf("max=%d", max), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(max)))
			r, m := &ring[int]{max: max}, &ringModel{max: max}
			checkRing(t, r, m, "empty")
			next := 0
			for i := 0; i < 6*max+200; i++ {
				step := fmt.Sprintf("step %d", i)
				if rng.Intn(2*max+20) == 0 {
					vs := make([]int, rng.Intn(max+3))
					for j := range vs {
						next++
						vs[j] = next
					}
					resetBoth(t, r, m, vs, step+" (reset)")
					continue
				}
				next++
				pushBoth(t, r, m, next, step)
			}
		})
	}
}

// TestRingResetThenGrowAndWrap restores fewer than max values — a
// recovered series — then pushes across the growth boundary (the first
// push after the exact-size reset) and on past max, across the wrap.
func TestRingResetThenGrowAndWrap(t *testing.T) {
	for _, max := range ringMaxes {
		t.Run(fmt.Sprintf("max=%d", max), func(t *testing.T) {
			r, m := &ring[int]{max: max}, &ringModel{max: max}
			vs := make([]int, max/2)
			for i := range vs {
				vs[i] = -i
			}
			resetBoth(t, r, m, vs, "reset")
			for i := 0; i < 2*max+3; i++ {
				pushBoth(t, r, m, i, fmt.Sprintf("push %d", i))
			}
			if len(r.buf) != max {
				t.Fatalf("after wrapping, len(buf) = %d, want max %d", len(r.buf), max)
			}
		})
	}
}

// TestRingGrowthAllocations pins the doubling: filling a ring from empty
// to max allocates at most ceil(log2(max/ringFloor))+1 backing arrays,
// and wrapping a full ring allocates nothing.
func TestRingGrowthAllocations(t *testing.T) {
	for _, max := range ringMaxes {
		bound := 1 + math.Max(0, math.Ceil(math.Log2(float64(max)/ringFloor)))
		fill := testing.AllocsPerRun(10, func() {
			r := ring[int]{max: max}
			for i := 0; i < max; i++ {
				r.push(i)
			}
			runtime.KeepAlive(&r)
		})
		if fill > bound {
			t.Errorf("max=%d: fill from empty allocates %v times, want <= %v", max, fill, bound)
		}
		r := ring[int]{max: max}
		for i := 0; i < max; i++ {
			r.push(i)
		}
		if wrap := testing.AllocsPerRun(10, func() { r.push(1) }); wrap != 0 {
			t.Errorf("max=%d: push into a full ring allocates %v times, want 0", max, wrap)
		}
	}
}

// ringBytesPerSeries is what one series' rings cost on the live heap
// once it holds points raw points: the heap growth of a capacity-1024
// store of n such series, less that of a capacity-1 store of the same
// keys.  The index, key strings and series headers cost the same in
// both, so what is left is the rings (and tier headers) beyond the
// baseline's one slot.  Points arrive as one wide batch per tick, the
// shape a fleet pushes.
func ringBytesPerSeries(t *testing.T, points int, tiers ...Tier) float64 {
	t.Helper()
	const n = 10000
	ticks := make([][]Sample, points)
	for j := range ticks {
		ticks[j] = make([]Sample, n)
		for i := range ticks[j] {
			ticks[j][i] = Sample{Source: "node", Metric: "bw", Scope: ScopeThread, ID: i, Time: float64(j), Value: float64(j)}
		}
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	perSeries := func(capacity int, tiers ...Tier) float64 {
		before := live()
		st := NewStore(capacity, tiers...)
		for _, tick := range ticks {
			st.AppendBatch(Batch{Samples: tick})
		}
		after := live()
		if got := st.Len(Key{Source: "node", Metric: "bw", Scope: ScopeThread, ID: n - 1}); got != min(points, capacity) {
			t.Fatalf("capacity %d store holds %d points per series, want %d", capacity, got, min(points, capacity))
		}
		return float64(after-before) / n
	}
	base := perSeries(1)
	b := perSeries(1024, tiers...) - base
	runtime.KeepAlive(ticks) // the input must not be freed inside a measurement
	return b
}

// TestSeriesMemoryFollowsPoints is the memory regression pin: 10 000
// series of 16 points each in a store that may hold 1024 per series cost
// what 16 points cost, not what 1024 slots (16 KiB) would — and
// configured tiers that no eviction has reached yet (10s:360,1m:720,
// ~60 KiB of buckets) cost nothing but their headers.
func TestSeriesMemoryFollowsPoints(t *testing.T) {
	tiers, err := ParseTiers("10s:360,1m:720")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		tiers []Tier
	}{{"raw", nil}, {"tiered", tiers}} {
		t.Run(tc.name, func(t *testing.T) {
			b := ringBytesPerSeries(t, 16, tc.tiers...)
			if b > 1024 {
				t.Fatalf("a 16-point series costs %.0f B of ring memory, want <= 1 KiB", b)
			}
			t.Logf("a 16-point series costs %.0f B of ring memory", b)
		})
	}
}
