package monitor

import (
	"cmp"
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

func (m *ringModel) pop() int {
	v := m.vals[0]
	m.vals = m.vals[1:]
	return v
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
	for i, want := range m.vals {
		if got := *r.at(i); got != want {
			t.Fatalf("%s: at(%d) = %d, want %d", step, i, got, want)
		}
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
// one) through random push/pop/reset sequences long enough to grow
// (also while wrapped, after pops), fill and wrap several times,
// checking contents, indexing, eviction and the size bound after
// every step.
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
				if len(m.vals) > 0 && rng.Intn(4) == 0 {
					if got, want := r.pop(), m.pop(); got != want {
						t.Fatalf("%s: pop = %d, want %d", step, got, want)
					}
					checkRing(t, r, m, step+" (pop)")
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

// ringBytesPerSeries is what one series' raw points and tiers cost on
// the live heap once it holds points raw points: the heap growth of a
// capacity-1024 store of n such series, less that of a capacity-1 store
// of the same keys.  The index, key strings and series headers cost the
// same in both, so what is left is the points (and tier headers) beyond
// the baseline's one.  Points arrive as one wide batch per tick, the
// shape a fleet pushes, with series i's value at tick j value(i, j).
func ringBytesPerSeries(t *testing.T, points int, value func(i, j int) float64, tiers ...Tier) float64 {
	t.Helper()
	const n = 10000
	ticks := make([][]Sample, points)
	for j := range ticks {
		ticks[j] = make([]Sample, n)
		for i := range ticks[j] {
			ticks[j][i] = Sample{Source: "node", Metric: "bw", Scope: ScopeThread, ID: i, Time: float64(j), Value: value(i, j)}
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

// TestSeriesMemoryFollowsPoints is the memory regression pin.  10 000
// series of 16 points each in a store that may hold 1024 per series cost
// what 16 points cost, not what 1024 slots (16 KiB) would — and
// configured tiers that no eviction has reached yet (10s:360,1m:720,
// ~60 KiB of buckets) cost nothing but their headers.  At 512 points of
// bench-like data — a value stepping slowly over a steady cadence — the
// sealed blocks hold a point in at most 4 B, where a plain []Point
// costs 16.
func TestSeriesMemoryFollowsPoints(t *testing.T) {
	tiers, err := ParseTiers("10s:360,1m:720")
	if err != nil {
		t.Fatal(err)
	}
	counter := func(i, j int) float64 { return float64(j) }
	for _, tc := range []struct {
		name  string
		tiers []Tier
	}{{"raw", nil}, {"tiered", tiers}} {
		t.Run(tc.name, func(t *testing.T) {
			b := ringBytesPerSeries(t, 16, counter, tc.tiers...)
			if b > 1024 {
				t.Fatalf("a 16-point series costs %.0f B of ring memory, want <= 1 KiB", b)
			}
			t.Logf("a 16-point series costs %.0f B of ring memory", b)
		})
	}
	t.Run("deep", func(t *testing.T) {
		step := func(i, j int) float64 { return float64(i%8000)/8 + float64((j+i%200)/(20+i%180))*0.125 }
		b := ringBytesPerSeries(t, 512, step) / 512
		if b > 4 {
			t.Fatalf("a 512-point series costs %.2f B per point, want <= 4", b)
		}
		t.Logf("a 512-point series costs %.2f B per point", b)
	})
}

// seriesModel is the reference a series must agree with: one plain
// ring[Point] of raw points and a tier cascade fed by its evictions, the
// semantics the sealed-block layout must reproduce point for point.
type seriesModel struct {
	raw   ring[Point]
	tiers []*tierRing
}

func newSeriesModel(capacity int, tiers []Tier) *seriesModel {
	m := &seriesModel{raw: ring[Point]{max: capacity}}
	for _, t := range tiers {
		m.tiers = append(m.tiers, newTierRing(t))
	}
	for i := 0; i+1 < len(m.tiers); i++ {
		m.tiers[i].next = m.tiers[i+1]
	}
	return m
}

func (m *seriesModel) append(p Point) {
	if old, full := m.raw.push(p); full && len(m.tiers) > 0 {
		m.tiers[0].absorb(old)
	}
}

func inRange(t, from, to float64) bool { return t >= from && (to < 0 || t <= to) }

// sorted copies every raw point, oldest first.
func (m *seriesModel) sorted() []Point {
	raw := m.raw.appendTo(nil)
	slices.SortStableFunc(raw, func(a, b Point) int { return cmp.Compare(a.Time, b.Time) })
	return raw
}

// window filters the sorted raw points — or stitches the tiers in below
// the oldest one.
func (m *seriesModel) window(sorted []Point, from, to float64) []Point {
	if len(m.tiers) == 0 {
		out := []Point{}
		for _, p := range sorted {
			if inRange(p.Time, from, to) {
				out = append(out, p)
			}
		}
		return out
	}
	var tiers [][]Bucket
	for _, t := range m.tiers {
		tiers = append(tiers, t.snapshot())
	}
	cover := math.Inf(1)
	if len(sorted) > 0 {
		cover = sorted[0].Time
	}
	return stitch(sorted, cover, tiers, from, to)
}

func (m *seriesModel) buckets(res, from, to float64) []Bucket {
	for _, t := range m.tiers {
		if t.res == res {
			all := t.snapshot()
			out := all[:0:0]
			for _, b := range all {
				if inRange(b.Start, from, to) {
					out = append(out, b)
				}
			}
			return out
		}
	}
	return nil
}

func (m *seriesModel) state(k Key) SeriesState {
	s := SeriesState{Key: k, Raw: m.raw.appendTo(make([]Point, 0, m.raw.n))}
	for _, t := range m.tiers {
		s.Tiers = append(s.Tiers, t.state())
	}
	return s
}

// samePoints compares bit for bit (NaN equals NaN, -0 differs from 0),
// nil-ness included: /query renders a nil window differently.
func samePoints(a, b []Point) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) ||
			math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// samePrinted compares by %v, which prints every float exactly and tells
// NaN and -0 apart from their neighbours.
func samePrinted(a, b any) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

func sameState(a, b SeriesState) bool {
	if a.Key != b.Key || a.Compaction != b.Compaction || !samePoints(a.Raw, b.Raw) || len(a.Tiers) != len(b.Tiers) {
		return false
	}
	for i, ta := range a.Tiers {
		tb := b.Tiers[i]
		if ta.Res != tb.Res || !samePrinted(ta.Buckets, tb.Buckets) || (ta.Open == nil) != (tb.Open == nil) ||
			(ta.Open != nil && !samePrinted(*ta.Open, *tb.Open)) {
			return false
		}
	}
	return true
}

// diffStream generates the appends: a steady cadence with duplicate and
// out-of-order timestamps, and slowly stepping values mixed with noise,
// NaN, ±Inf and -0.
type diffStream struct {
	rng *rand.Rand
	t   float64
	i   int
}

func (s *diffStream) next() Point {
	s.i++
	switch r := s.rng.Intn(20); {
	case r == 0: // a duplicate timestamp
	case r == 1:
		s.t -= float64(1 + s.rng.Intn(80)) // an agent restart, a late batch
	default:
		s.t++
	}
	v := 500 + float64(s.i/37)*0.125
	switch s.rng.Intn(16) {
	case 0:
		v = math.NaN()
	case 1:
		v = math.Inf(1)
	case 2:
		v = math.Inf(-1)
	case 3:
		v = math.Copysign(0, -1)
	case 4:
		v = s.rng.NormFloat64() * 1e6
	}
	return Point{Time: s.t, Value: v}
}

// modelReads is what every read of the series must return after one
// step, over a few random ranges around what the raw points span —
// reaching into the tiers below them, and often starting past the
// oldest blocks.
type modelReads struct {
	len     int
	latest  Point
	ok      bool
	ranges  [][2]float64
	windows [][]Point
	buckets [][][]Bucket // by range, then tier
	state   SeriesState
}

func (m *seriesModel) reads(k Key, tiers []Tier, rng *rand.Rand) modelReads {
	r := modelReads{len: m.raw.n, state: m.state(k)}
	if r.ok = m.raw.n > 0; r.ok {
		r.latest = *m.raw.at(m.raw.n - 1)
	}
	sorted := m.sorted()
	lo, hi := 0.0, 1.0
	if len(sorted) > 0 {
		lo, hi = sorted[0].Time, sorted[len(sorted)-1].Time
	}
	for range 3 {
		from := lo - 200 + rng.Float64()*(hi-lo+220)
		to := -1.0
		if rng.Intn(3) > 0 {
			to = from + rng.Float64()*300
		}
		if rng.Intn(2) == 0 { // bounds on point times: inclusive edges
			from, to = math.Round(from), math.Round(to)
		}
		r.ranges = append(r.ranges, [2]float64{from, to})
		r.windows = append(r.windows, m.window(sorted, from, to))
		var bs [][]Bucket
		for _, tier := range tiers {
			bs = append(bs, m.buckets(tier.Resolution, from, to))
		}
		r.buckets = append(r.buckets, bs)
	}
	return r
}

// checkReads compares every read of one series with the model's.
func checkReads(t *testing.T, st *Store, k Key, want modelReads, tiers []Tier, step string) {
	t.Helper()
	if got := st.Len(k); got != want.len {
		t.Fatalf("%s: Len = %d, want %d", step, got, want.len)
	}
	if p, ok := st.Latest(k); ok != want.ok || !samePoints([]Point{p}, []Point{want.latest}) {
		t.Fatalf("%s: Latest = %v %v, want %v %v", step, p, ok, want.latest, want.ok)
	}
	var buf []Point
	for i, rg := range want.ranges {
		from, to := rg[0], rg[1]
		if i%2 == 0 {
			if got := st.Window(k, from, to); !samePoints(got, want.windows[i]) {
				t.Fatalf("%s: Window(%v, %v) = %v, want %v", step, from, to, got, want.windows[i])
			}
		} else if buf = st.WindowInto(k, from, to, buf); !samePoints(buf, want.windows[i]) {
			t.Fatalf("%s: WindowInto(%v, %v) = %v, want %v", step, from, to, buf, want.windows[i])
		}
		for j, tier := range tiers {
			if got := st.Buckets(k, tier.Resolution, from, to); !samePrinted(got, want.buckets[i][j]) {
				t.Fatalf("%s: Buckets(%v, %v, %v) = %v, want %v", step, tier.Resolution, from, to, got, want.buckets[i][j])
			}
		}
	}
	if states := st.DumpState(); len(states) != 1 || !sameState(states[0], want.state) {
		t.Fatalf("%s: DumpState = %+v, want %+v", step, states, want.state)
	}
}

// TestSeriesMatchesRingModel is the differential test of the sealed-block
// layout: random appends go to a store series and to the plain-ring
// model, and every read must agree after every step, at capacities
// around and across the block size, with and without tiers.  Twice per
// run — once while the head is part-filled, once while the tail is part
// drained — the series is dumped and restored into a fresh store, which
// must then continue exactly like the live one.
func TestSeriesMatchesRingModel(t *testing.T) {
	for _, capacity := range []int{1, 63, 64, 65, 197, 1024} {
		for _, tiers := range [][]Tier{nil, {{Resolution: 8, Capacity: 16}, {Resolution: 64, Capacity: 8}}} {
			t.Run(fmt.Sprintf("cap=%d/tiers=%d", capacity, len(tiers)), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity*10 + len(tiers))))
				k := Key{Source: "node", Metric: "bw", Scope: ScopeThread, ID: 1}
				m := newSeriesModel(capacity, tiers)
				live := NewStore(capacity, tiers...)
				stores := []*Store{live}
				var midHead, midTail bool
				gen := &diffStream{rng: rng, t: 1e4}
				for i := range capacity + 4*blockPoints + 50 {
					p := gen.next()
					m.append(p)
					want := m.reads(k, tiers, rng)
					for j, st := range stores {
						st.Append(k, p)
						checkReads(t, st, k, want, tiers, fmt.Sprintf("step %d, store %d", i, j))
					}
					r := &live.lookup(k).raw
					head := len(r.head) > 0 && r.toff == r.tn && (r.blocks.n > 0 || capacity <= blockPoints)
					tail := r.toff > 0 && r.toff < r.tn
					if (head && !midHead) || (tail && !midTail) {
						midHead, midTail = midHead || head, midTail || tail
						restored := NewStore(capacity, tiers...)
						restored.RestoreState(live.DumpState())
						checkReads(t, restored, k, want, tiers, fmt.Sprintf("step %d, restored", i))
						stores = append(stores, restored)
					}
				}
				if !midHead || (!midTail && capacity > 1) {
					t.Fatalf("the run never restored mid-head (%v) or mid-tail (%v)", midHead, midTail)
				}
			})
		}
	}
}
