package monitor

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestParseTiers(t *testing.T) {
	tiers, err := ParseTiers("10s:360, 1m:720,5m:576")
	if err != nil {
		t.Fatal(err)
	}
	want := []Tier{{10, 360}, {60, 720}, {300, 576}}
	if len(tiers) != len(want) {
		t.Fatalf("tiers = %+v, want %+v", tiers, want)
	}
	for i := range want {
		if tiers[i] != want[i] {
			t.Errorf("tier %d = %+v, want %+v", i, tiers[i], want[i])
		}
	}
	if tiers[0].Span() != 3600 {
		t.Errorf("10s:360 span = %v, want 3600", tiers[0].Span())
	}
	if got := tiers[1].String(); got != "1m0s:720" {
		t.Errorf("tier String = %q", got)
	}

	if tiers, err := ParseTiers(""); err != nil || tiers != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", tiers, err)
	}
	for _, bad := range []string{"10s", "x:5", "10s:x", "10s:0", "10s:-3", "-10s:5", "0s:5", "1m:10,10s:10", "10s:5,10s:5"} {
		if _, err := ParseTiers(bad); err == nil {
			t.Errorf("ParseTiers(%q) succeeded, want error", bad)
		}
	}
}

// TestTierStringRoundTrips pins Tier.String against float rounding:
// ParseTiers(tier.String()) must yield the tier back exactly.  The old
// truncating conversion rendered 300ms as "299.999999ms" (0.3*1e9 is not
// exactly representable), so specs with sub-second or odd resolutions
// did not survive a render/re-parse cycle.
func TestTierStringRoundTrips(t *testing.T) {
	specs := []string{
		"300ms", "100ms", "250ms", "1.5s", "2.5ms", "333ms", "250us",
		"10s", "1m", "1m30s", "5m", "1h", "12h", "7s", "1ns",
	}
	for _, s := range specs {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad test duration %q: %v", s, err)
		}
		tier := Tier{Resolution: d.Seconds(), Capacity: 7}
		got, err := ParseTiers(tier.String())
		if err != nil {
			t.Errorf("ParseTiers(%q.String() = %q) failed: %v", s, tier.String(), err)
			continue
		}
		if len(got) != 1 || got[0] != tier {
			t.Errorf("round trip of %q: %q parsed back to %+v, want %+v", s, tier.String(), got, tier)
		}
	}

	// Property sweep: random positive durations round-trip too, and a
	// whole multi-tier spec survives render/re-parse as a unit.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := time.Duration(1 + rng.Int63n(int64(24*time.Hour)))
		tier := Tier{Resolution: d.Seconds(), Capacity: 1 + rng.Intn(1000)}
		got, err := ParseTiers(tier.String())
		if err != nil || len(got) != 1 || got[0] != tier {
			t.Fatalf("trial %d: %v (res %v) rendered %q, parsed back to (%+v, %v)",
				trial, tier, d, tier.String(), got, err)
		}
	}
	tiers, err := ParseTiers("300ms:10,1.5s:20,1m:30")
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, tier := range tiers {
		parts = append(parts, tier.String())
	}
	again, err := ParseTiers(strings.Join(parts, ","))
	if err != nil {
		t.Fatalf("re-parse of rendered spec %q failed: %v", strings.Join(parts, ","), err)
	}
	if len(again) != len(tiers) {
		t.Fatalf("re-parse = %+v, want %+v", again, tiers)
	}
	for i := range tiers {
		if again[i] != tiers[i] {
			t.Errorf("tier %d round trip = %+v, want %+v", i, again[i], tiers[i])
		}
	}
}

// TestWindowBoundaryPointAtBucketEnd is the stitch coverage-boundary
// regression: a raw point whose timestamp falls exactly on a sealed tier
// bucket's End() — it is the first member of the next (still open)
// bucket — must come back from Window exactly once.  The old stitch
// skipped any bucket with End() > cover, which dropped the open bucket
// holding that point even though all its members are older than the
// retained raw ring.
func TestWindowBoundaryPointAtBucketEnd(t *testing.T) {
	// Ring of 4, 1 s buckets.  Appends at t = 0, 0.25, ..., 2.0 (exact in
	// binary), values = index: the ring keeps t = 1.25..2.0, evictions
	// cover t = 0..1.0 → sealed bucket [0,1) plus an open bucket [1,2)
	// whose only member is the point at exactly t = 1.0 (the sealed
	// bucket's End).
	st := NewStore(4, Tier{Resolution: 1, Capacity: 8})
	k := key("bw")
	for i := 0; i <= 8; i++ {
		st.Append(k, Point{Time: float64(i) * 0.25, Value: float64(i)})
	}
	pts := st.Window(k, 0, -1)
	if len(pts) != 6 {
		t.Fatalf("stitched window = %+v, want 6 points (sealed bucket, open bucket, 4 raw)", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatalf("window not strictly time-ordered at %d: %+v", i, pts)
		}
	}
	var atBoundary int
	for _, p := range pts {
		if p.Time == 1.0 {
			atBoundary++
			if p.Value != 4 {
				t.Errorf("boundary point = %+v, want the t=1.0 append (value 4) exactly", p)
			}
		}
	}
	if atBoundary != 1 {
		t.Errorf("point at t=1.0 appears %d times, want exactly once", atBoundary)
	}
	// The sealed bucket and the raw tail are untouched by the fix.
	if pts[0].Time != 0 || pts[0].Value != 1.5 {
		t.Errorf("sealed bucket point = %+v, want t=0 avg=1.5", pts[0])
	}
	for i, p := range pts[2:] {
		if want := (Point{Time: 1.25 + 0.25*float64(i), Value: float64(i + 5)}); p != want {
			t.Errorf("raw point %d = %+v, want %+v", i, p, want)
		}
	}
}

// TestCompactionFoldsEvictedPoints pins the compaction arithmetic: evicted
// raw points land in stats buckets, surviving raw points do not.
func TestCompactionFoldsEvictedPoints(t *testing.T) {
	// Raw ring of 4; 1-second buckets.  Times step by 0.25 (exact in
	// binary) so bucket membership has no float noise.
	st := NewStore(4, Tier{Resolution: 1, Capacity: 8})
	k := key("bw")
	values := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8}
	for i, v := range values {
		st.Append(k, Point{Time: float64(i) * 0.25, Value: v})
	}
	// 12 appended, ring keeps the last 4: evicted are values[0:8],
	// covering t = 0 .. 1.75 → bucket [0,1) sealed with values[0:4],
	// bucket [1,2) provisional with values[4:8].
	buckets := st.Buckets(k, 1, 0, -1)
	if len(buckets) != 2 {
		t.Fatalf("buckets = %+v, want 2", buckets)
	}
	b0 := buckets[0]
	if b0.Start != 0 || b0.Count != 4 || b0.Min != 1 || b0.Max != 4 || b0.Avg != 2.25 || b0.Median != 2 {
		t.Errorf("bucket 0 = %+v, want start=0 count=4 min=1 med=2 max=4 avg=2.25", b0)
	}
	b1 := buckets[1]
	if b1.Start != 1 || b1.Count != 4 || b1.Min != 2 || b1.Max != 9 || b1.Avg != 5.5 {
		t.Errorf("bucket 1 = %+v, want start=1 count=4 min=2 max=9 avg=5.5", b1)
	}
	// Unconfigured resolutions and unknown series return nil.
	if got := st.Buckets(k, 2, 0, -1); got != nil {
		t.Errorf("Buckets at unconfigured resolution = %+v, want nil", got)
	}
	if got := st.Buckets(key("nope"), 1, 0, -1); got != nil {
		t.Errorf("Buckets of unknown series = %+v, want nil", got)
	}
}

func TestUniformStreamBucketCountMatchesResolution(t *testing.T) {
	// 0.125 s sampling into 1 s buckets: every sealed bucket holds
	// exactly 8 points.
	st := NewStore(16, Tier{Resolution: 1, Capacity: 64})
	k := key("bw")
	const dt = 0.125
	for i := 0; i < 400; i++ {
		st.Append(k, Point{Time: float64(i) * dt, Value: float64(i)})
	}
	buckets := st.Buckets(k, 1, 0, -1)
	if len(buckets) < 10 {
		t.Fatalf("only %d buckets compacted", len(buckets))
	}
	for i, b := range buckets[:len(buckets)-1] { // last may be provisional
		if b.Count != 8 {
			t.Errorf("bucket %d (start %v) Count = %d, want 8 (res/interval)", i, b.Start, b.Count)
		}
		if b.Start != float64(i) {
			t.Errorf("bucket %d Start = %v, want %d", i, b.Start, i)
		}
	}
}

func TestTierRingEvictsOldestBuckets(t *testing.T) {
	st := NewStore(2, Tier{Resolution: 1, Capacity: 4})
	k := key("bw")
	for i := 0; i < 40; i++ {
		st.Append(k, Point{Time: float64(i) * 0.5, Value: float64(i)})
	}
	buckets := st.Buckets(k, 1, 0, -1)
	// 4 sealed + possibly 1 provisional; the oldest buckets are gone.
	if len(buckets) < 4 || len(buckets) > 5 {
		t.Fatalf("buckets = %d, want 4 or 5", len(buckets))
	}
	if buckets[0].Start < 13 {
		t.Errorf("oldest retained bucket starts at %v, want the early buckets evicted", buckets[0].Start)
	}
}

func TestWindowStitchesTiersWithRaw(t *testing.T) {
	st := NewStore(8, Tier{Resolution: 1, Capacity: 8}, Tier{Resolution: 4, Capacity: 8})
	k := key("bw")
	const dt = 0.5
	n := 100 // t = 0 .. 49.5
	for i := 0; i < n; i++ {
		st.Append(k, Point{Time: float64(i) * dt, Value: float64(i)})
	}
	// Raw keeps t = 46 .. 49.5.  The 1 s tier keeps its newest 8 sealed
	// buckets below that; the 4 s tier covers older ranges still.
	pts := st.Window(k, 0, -1)
	if len(pts) == 0 {
		t.Fatal("stitched window is empty")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatalf("window not strictly time-ordered at %d: %v after %v", i, pts[i].Time, pts[i-1].Time)
		}
	}
	// The newest 8 points are the raw ring verbatim.
	rawPart := pts[len(pts)-8:]
	for i, p := range rawPart {
		wantT := float64(n-8+i) * dt
		if p.Time != wantT || p.Value != float64(n-8+i) {
			t.Errorf("raw point %d = %+v, want t=%v v=%v", i, p, wantT, n-8+i)
		}
	}
	// Older points are bucket averages: values ramp linearly, so each
	// 1 s bucket of the ramp averages its own midpoint and stays
	// monotonic too.
	downPart := pts[:len(pts)-8]
	if len(downPart) == 0 {
		t.Fatal("no downsampled points stitched in")
	}
	for i := 1; i < len(downPart); i++ {
		if downPart[i].Value <= downPart[i-1].Value {
			t.Errorf("downsampled ramp not monotonic at %d: %+v after %+v", i, downPart[i], downPart[i-1])
		}
	}
	// A window restricted to the downsampled past touches no raw point.
	past := st.Window(k, 10, 20)
	for _, p := range past {
		if p.Time < 10 || p.Time > 20 {
			t.Errorf("windowed point %v outside [10,20]", p.Time)
		}
	}
	if len(past) == 0 {
		t.Error("past window returned nothing despite tier coverage")
	}
}

// TestCompactionPropertyInvariants is the randomized sweep: for random
// point streams, every bucket keeps min ≤ median/avg ≤ max with the
// right point count, and stitched windows stay non-overlapping and
// time-ordered across tier boundaries.
func TestCompactionPropertyInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rawCap := 4 + rng.Intn(60)
		tiers := []Tier{
			{Resolution: 1, Capacity: 8 + rng.Intn(32)},
			{Resolution: 5, Capacity: 8 + rng.Intn(32)},
		}
		st := NewStore(rawCap, tiers...)
		k := key("rand")
		n := 200 + rng.Intn(800)
		// Exact-binary 0.25 s steps: bucket membership is deterministic,
		// so sealed 1 s buckets must hold exactly 4 points.
		var minV, maxV = math.Inf(1), math.Inf(-1)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64() * 100
			minV = math.Min(minV, v)
			maxV = math.Max(maxV, v)
			st.Append(k, Point{Time: float64(i) * 0.25, Value: v})
		}
		for _, tier := range tiers {
			buckets := st.Buckets(k, tier.Resolution, 0, -1)
			for i, b := range buckets {
				if !(b.Min <= b.Avg && b.Avg <= b.Max) {
					t.Fatalf("seed %d res %v bucket %d: min %v ≤ avg %v ≤ max %v violated",
						seed, tier.Resolution, i, b.Min, b.Avg, b.Max)
				}
				if !(b.Min <= b.Median && b.Median <= b.Max) {
					t.Fatalf("seed %d res %v bucket %d: min %v ≤ median %v ≤ max %v violated",
						seed, tier.Resolution, i, b.Min, b.Median, b.Max)
				}
				if b.Min < minV || b.Max > maxV {
					t.Fatalf("seed %d res %v bucket %d: [%v,%v] outside the appended value range [%v,%v]",
						seed, tier.Resolution, i, b.Min, b.Max, minV, maxV)
				}
				if b.Count <= 0 || b.Count > int(tier.Resolution/0.25) {
					t.Fatalf("seed %d res %v bucket %d: count %d outside (0, %d]",
						seed, tier.Resolution, i, b.Count, int(tier.Resolution/0.25))
				}
				if i < len(buckets)-1 && b.Count != int(tier.Resolution/0.25) {
					t.Fatalf("seed %d res %v sealed bucket %d: count %d, want %d (resolution/interval)",
						seed, tier.Resolution, i, b.Count, int(tier.Resolution/0.25))
				}
				if i > 0 && b.Start < buckets[i-1].End() {
					t.Fatalf("seed %d res %v buckets overlap: %d starts %v before %v",
						seed, tier.Resolution, i, b.Start, buckets[i-1].End())
				}
			}
		}
		// Random windows, including ones spanning raw and both tiers.
		for trial := 0; trial < 10; trial++ {
			from := rng.Float64() * float64(n) * 0.25
			to := from + rng.Float64()*float64(n)*0.25
			if trial == 0 {
				from, to = 0, -1 // the full stitched range
			}
			pts := st.Window(k, from, to)
			for i, p := range pts {
				if p.Time < from || (to >= 0 && p.Time > to) {
					t.Fatalf("seed %d window [%v,%v]: point %v out of range", seed, from, to, p.Time)
				}
				if i > 0 && p.Time <= pts[i-1].Time {
					t.Fatalf("seed %d window [%v,%v]: times not strictly ascending at %d (%v after %v)",
						seed, from, to, i, p.Time, pts[i-1].Time)
				}
			}
			if !sort.SliceIsSorted(pts, func(i, j int) bool { return pts[i].Time < pts[j].Time }) {
				t.Fatalf("seed %d window [%v,%v] not sorted", seed, from, to)
			}
		}
	}
}

// TestCascadingTierCompaction pins the cascade: buckets evicted from the
// finest tier's ring compact into the next tier (count-weighted) instead
// of being dropped, and the tiers cover disjoint, contiguous age ranges.
func TestCascadingTierCompaction(t *testing.T) {
	// Raw ring of 4; 1 s buckets (cap 4) cascading into 4 s buckets
	// (cap 16).  128 points at exact-binary 0.25 s steps, values = index.
	st := NewStore(4, Tier{Resolution: 1, Capacity: 4}, Tier{Resolution: 4, Capacity: 16})
	k := key("bw")
	for i := 0; i < 128; i++ {
		st.Append(k, Point{Time: float64(i) * 0.25, Value: float64(i)})
	}

	// The coarse tier was fed exclusively by fine-tier evictions; its
	// first bucket aggregates the four 1 s buckets of [0,4): exact count,
	// min, max and count-weighted average; the median is the median of
	// the member buckets' medians (1.5, 5.5, 9.5, 13.5).
	coarse := st.Buckets(k, 4, 0, -1)
	if len(coarse) == 0 {
		t.Fatal("no cascaded buckets in the coarse tier")
	}
	b0 := coarse[0]
	if b0.Start != 0 || b0.Count != 16 || b0.Min != 0 || b0.Max != 15 || b0.Avg != 7.5 || b0.Median != 7.5 {
		t.Errorf("cascaded bucket = %+v, want start=0 count=16 min=0 max=15 avg=7.5 median=7.5", b0)
	}

	// Disjoint coverage: every sealed coarse bucket is older than the
	// oldest retained fine bucket (before the cascade, the coarse tier
	// re-absorbed raw evictions and overlapped the fine tier's range).
	fine := st.Buckets(k, 1, 0, -1)
	if len(fine) == 0 {
		t.Fatal("no buckets in the fine tier")
	}
	sealedCoarse := coarse[:len(coarse)-1] // last may be provisional
	for i, b := range sealedCoarse {
		if b.End() > fine[0].Start {
			t.Errorf("coarse bucket %d [%v,%v) overlaps the fine tier (oldest fine start %v)",
				i, b.Start, b.End(), fine[0].Start)
		}
	}

	// Nothing was lost to tier evictions: the stitched full window still
	// reaches back to t=0.
	pts := st.Window(k, 0, -1)
	if len(pts) == 0 || pts[0].Time != 0 {
		t.Fatalf("stitched window starts at %v, want 0 (history dropped in the cascade?)",
			pts[0].Time)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time <= pts[i-1].Time {
			t.Fatalf("stitched window not strictly ordered at %d", i)
		}
	}
}

// TestCascadeTerminatesAtCoarsestTier pins that the coarsest tier still
// drops its evictions (there is nowhere coarser to cascade to).
func TestCascadeTerminatesAtCoarsestTier(t *testing.T) {
	st := NewStore(2, Tier{Resolution: 1, Capacity: 2})
	k := key("bw")
	for i := 0; i < 80; i++ {
		st.Append(k, Point{Time: float64(i) * 0.5, Value: float64(i)})
	}
	buckets := st.Buckets(k, 1, 0, -1)
	if len(buckets) < 2 || len(buckets) > 3 {
		t.Fatalf("buckets = %d, want 2 sealed (+1 provisional)", len(buckets))
	}
	if buckets[0].Start < 30 {
		t.Errorf("oldest bucket starts at %v, want early buckets evicted for good", buckets[0].Start)
	}
}

// TestStoreWithoutTiersKeepsLegacyWindow pins that a tierless store's
// Window is unchanged: raw points only, silently truncated history.
func TestStoreWithoutTiersKeepsLegacyWindow(t *testing.T) {
	st := NewStore(4)
	k := key("bw")
	for i := 0; i < 10; i++ {
		st.Append(k, Point{Time: float64(i), Value: float64(i)})
	}
	pts := st.Window(k, 0, -1)
	if len(pts) != 4 || pts[0].Time != 6 {
		t.Fatalf("tierless window = %+v, want raw points 6..9", pts)
	}
	if st.Tiers() != nil {
		t.Errorf("Tiers() = %v, want nil", st.Tiers())
	}
}

func TestConcurrentAppendsWithTiers(t *testing.T) {
	st := NewStore(32, Tier{Resolution: 1, Capacity: 16})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			k := Key{Metric: "m", Scope: ScopeThread, ID: g}
			for i := 0; i < 400; i++ {
				st.Append(k, Point{Time: float64(i) * 0.25, Value: float64(i)})
				if i%10 == 0 {
					st.Window(k, 0, -1)
					st.Buckets(k, 1, 0, -1)
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	for g := 0; g < 8; g++ {
		k := Key{Metric: "m", Scope: ScopeThread, ID: g}
		if n := len(st.Buckets(k, 1, 0, -1)); n == 0 {
			t.Errorf("series %d has no compacted buckets", g)
		}
	}
}

// TestStepCompactionKeepsLastValue pins CompactLast: a sparse 0/1
// transition series (alert history) compacts each bucket to its newest
// member — the state at the bucket end — instead of averaging a 1→0
// pair into 0.5 noise.  Min/max stay exact either way.
func TestStepCompactionKeepsLastValue(t *testing.T) {
	appendTransitions := func(st *Store, k Key) {
		// Fire (1) and resolve (0) inside bucket [0,10), then keep the
		// series moving so both transition points evict into the tier.
		for i, p := range []Point{
			{Time: 1, Value: 1}, {Time: 2, Value: 0},
			{Time: 11, Value: 1}, {Time: 12, Value: 0},
			{Time: 21, Value: 1}, {Time: 22, Value: 0},
		} {
			_ = i
			st.Append(k, p)
		}
	}
	k := Key{Metric: "alert/bw_low", Scope: ScopeNode, ID: 0}

	step := NewStore(2, Tier{Resolution: 10, Capacity: 8})
	step.SetCompaction(k, CompactLast)
	appendTransitions(step, k)
	buckets := step.Buckets(k, 10, 0, -1)
	if len(buckets) == 0 {
		t.Fatal("no buckets compacted")
	}
	for _, b := range buckets {
		if b.Avg != 0 && b.Avg != 1 {
			t.Errorf("step bucket [%v,%v) avg = %v, want a recorded 0/1 state", b.Start, b.End(), b.Avg)
		}
		if b.Median != b.Avg {
			t.Errorf("step bucket [%v,%v) median = %v, want the last value %v", b.Start, b.End(), b.Median, b.Avg)
		}
	}
	if b := buckets[0]; b.Start != 0 || b.Avg != 0 || b.Min != 0 || b.Max != 1 || b.Count != 2 {
		t.Errorf("bucket [0,10) = %+v, want last=0 with exact min 0 / max 1 / count 2", b)
	}
	for _, p := range step.Window(k, 0, -1) {
		if p.Value != 0 && p.Value != 1 {
			t.Errorf("stitched window point %+v shows a value never recorded", p)
		}
	}

	// Contrast: the default mean compaction of the same data does show
	// the 0.5 average CompactLast exists to avoid.
	mean := NewStore(2, Tier{Resolution: 10, Capacity: 8})
	appendTransitions(mean, k)
	mb := mean.Buckets(k, 10, 0, -1)
	if len(mb) == 0 || mb[0].Avg != 0.5 {
		t.Fatalf("mean buckets = %+v, want the first to average to 0.5", mb)
	}
}

// TestStepCompactionSurvivesCascade checks last-of-lasts through the
// tier cascade: buckets evicted from the finest step tier keep
// last-value semantics in the coarser tier.
func TestStepCompactionSurvivesCascade(t *testing.T) {
	k := Key{Metric: "alert/r", Scope: ScopeNode, ID: 0}
	st := NewStore(1, Tier{Resolution: 1, Capacity: 2}, Tier{Resolution: 10, Capacity: 8})
	st.SetCompaction(k, CompactLast)
	// One transition pair per 1s bucket: 1 at t+0.2, 0 at t+0.7.
	for i := 0; i < 40; i++ {
		tm := float64(i / 2)
		v := float64((i + 1) % 2)
		if v == 1 {
			st.Append(k, Point{Time: tm + 0.2, Value: 1})
		} else {
			st.Append(k, Point{Time: tm + 0.7, Value: 0})
		}
	}
	coarse := st.Buckets(k, 10, 0, -1)
	if len(coarse) == 0 {
		t.Fatal("cascade produced no coarse buckets")
	}
	for _, b := range coarse {
		if b.Avg != 0 && b.Avg != 1 {
			t.Errorf("cascaded bucket [%v,%v) avg = %v, want a recorded 0/1 state", b.Start, b.End(), b.Avg)
		}
	}
}

// windowByStitch is the tiered window path without the raw-covered
// shortcut: snapshot every tier, sort the raw candidates, stitch.  It is
// the oracle TestWindowIntoTieredMatchesStitch holds WindowInto to.
func windowByStitch(st *Store, k Key, from, to float64) []Point {
	s := st.lookup(k)
	s.mu.RLock()
	raw := s.raw.appendRange(nil, from, to)
	if raw == nil && s.raw.n > 0 {
		raw = []Point{}
	}
	var tiers [][]Bucket
	for _, t := range s.tiers {
		tiers = append(tiers, t.snapshot())
	}
	cover := s.raw.oldestTime()
	s.mu.RUnlock()
	sort.SliceStable(raw, func(i, j int) bool { return raw[i].Time < raw[j].Time })
	return stitch(raw, cover, tiers, from, to)
}

// TestWindowIntoTieredMatchesStitch holds tiered windows to the full
// snapshot-and-stitch path on random series (out-of-order and duplicate
// times, NaN and ±Inf values, both compactions), with windows starting
// below, exactly at and above the raw cover.  A raw-covered window
// (from >= cover) must also be served in the caller's buffer, as an
// untiered window is.
func TestWindowIntoTieredMatchesStitch(t *testing.T) {
	tiers := []Tier{{Resolution: 8, Capacity: 16}, {Resolution: 64, Capacity: 8}}
	for _, capacity := range []int{1, 65, 197, 1024} {
		for _, comp := range []Compaction{CompactMean, CompactLast} {
			t.Run(fmt.Sprintf("cap=%d/compaction=%d", capacity, comp), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(capacity) + int64(comp)))
				k := Key{Metric: "bw", Scope: ScopeSocket, ID: 0}
				st := NewStore(capacity, tiers...)
				st.SetCompaction(k, comp)
				gen := &diffStream{rng: rng, t: 1e4}
				buf := make([]Point, 0, capacity+2*blockPoints) // fits every raw superset
				covered := 0
				for i := range capacity + 6*blockPoints {
					st.Append(k, gen.next())
					if i%7 != 0 {
						continue
					}
					s := st.lookup(k)
					s.mu.RLock()
					cover := s.raw.oldestTime()
					s.mu.RUnlock()
					for _, from := range []float64{cover - 70, cover - 8, cover - 1, cover, cover + 0.5, cover + 3, gen.t - 5, gen.t + 1} {
						for _, to := range []float64{-1, from + 40, cover} {
							want := windowByStitch(st, k, from, to)
							got := st.WindowInto(k, from, to, buf)
							if !samePoints(got, want) {
								t.Fatalf("step %d: WindowInto(%v, %v) with cover %v = %v, want %v", i, from, to, cover, got, want)
							}
							if from >= cover {
								covered++
								if cap(got) == 0 || &got[:1][0] != &buf[:1][0] {
									t.Fatalf("step %d: raw-covered WindowInto(%v, %v) with cover %v did not reuse the buffer", i, from, to, cover)
								}
							}
						}
					}
				}
				if covered == 0 {
					t.Fatal("no window was raw-covered")
				}
			})
		}
	}
}
