package monitor

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"likwid/internal/stats"
)

// Tier configures one downsampled retention level of the store.  Raw
// points evicted from a series are folded into buckets of the finest
// tier's Resolution simulated seconds, and buckets evicted from tier
// N's ring cascade into tier N+1 instead of being dropped;
// each series keeps the newest Capacity buckets per tier, so total
// retention per series is genuinely additive:
// raw_capacity * interval + sum(Resolution * Capacity) seconds.
type Tier struct {
	Resolution float64 // bucket width in simulated seconds
	Capacity   int     // most buckets retained per series; slots are allocated as they fill
}

// Span is the simulated time covered by a full tier.
func (t Tier) Span() float64 { return t.Resolution * float64(t.Capacity) }

// tierDuration converts a resolution in (possibly fractional) seconds
// back to the duration it was parsed from.  The product res*1e9 is not
// always exactly representable (0.3*1e9 rounds to 299999999.99999994),
// so it must be rounded, not truncated: truncation renders "299.999999ms"
// and breaks the ParseTiers(tiers.String()) round-trip for sub-second
// and odd resolutions.
func tierDuration(res float64) time.Duration {
	return time.Duration(math.Round(res * float64(time.Second)))
}

// String renders the tier in the -tiers spec syntax.  It round-trips:
// ParseTiers(t.String()) yields t back for any tier ParseTiers accepts.
func (t Tier) String() string {
	return fmt.Sprintf("%s:%d", tierDuration(t.Resolution), t.Capacity)
}

// ParseTiers parses a tier spec: comma-separated RESOLUTION:CAPACITY
// pairs with ascending resolutions, e.g. "10s:360,1m:720,5m:576"
// (1 h of 10 s buckets, 12 h of 1 m buckets, 48 h of 5 m buckets).
// An empty spec means no downsampling.
func ParseTiers(spec string) ([]Tier, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var tiers []Tier
	for _, part := range strings.Split(spec, ",") {
		resStr, capStr, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("monitor: bad tier %q (want RESOLUTION:CAPACITY, e.g. 10s:360)", part)
		}
		d, err := time.ParseDuration(resStr)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("monitor: bad tier resolution %q (want a positive duration like 10s)", resStr)
		}
		n, err := strconv.Atoi(capStr)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("monitor: bad tier capacity %q (want a positive bucket count)", capStr)
		}
		tiers = append(tiers, Tier{Resolution: d.Seconds(), Capacity: n})
	}
	for i := 1; i < len(tiers); i++ {
		if tiers[i].Resolution <= tiers[i-1].Resolution {
			return nil, fmt.Errorf("monitor: tier resolutions must ascend (%v after %v)",
				tierDuration(tiers[i].Resolution), tierDuration(tiers[i-1].Resolution))
		}
	}
	return tiers, nil
}

// Bucket is one compacted aggregate of raw points over [Start, Start+Res).
type Bucket struct {
	Start  float64 `json:"start"`
	Res    float64 `json:"res"`
	Count  int     `json:"count"`
	Min    float64 `json:"min"`
	Median float64 `json:"median"`
	Max    float64 `json:"max"`
	Avg    float64 `json:"avg"`
}

// End is the exclusive upper time bound of the bucket.
func (b Bucket) End() float64 { return b.Start + b.Res }

// Point renders the bucket as one windowed point (bucket start, average),
// the shape stitched Window queries return for downsampled ranges.
func (b Bucket) Point() Point { return Point{Time: b.Start, Value: b.Avg} }

// tierRing is one series' ring of sealed buckets at one resolution, plus
// the open bucket still accumulating absorbed data.  Compaction cascades:
// raw evictions feed the finest tier, and a bucket evicted from tier N's
// ring is absorbed into tier N+1 (count-weighted) instead of being
// dropped, so total retention is genuinely additive across tiers.  It is
// guarded by the owning series' mutex.
type tierRing struct {
	res  float64
	ring ring[Bucket]
	next *tierRing // cascade target for evicted buckets; nil on the coarsest

	// step switches the sealed bucket's windowed value (Avg and Median)
	// to the chronologically newest member — last-value semantics for
	// sparse 0/1 state series (Store.SetCompaction, CompactLast), where
	// averaging a 1→0 transition pair into 0.5 would be noise.  Min,
	// max and count stay exact either way.
	step bool

	// seals counts buckets sealed into the ring — the store-level
	// "tier compactions" self-metric, summed by Store.Stats under the
	// same series mutex that guards the rest of the ring.
	seals uint64

	// Open-bucket accumulator.  Min/max/sum/count merge exactly whether
	// the input is a raw point or a cascaded bucket; the median is exact
	// for raw points and a median-of-medians estimate for cascades.
	open         bool
	openStart    float64
	count        int
	min, max     float64
	sum          float64
	lastT, lastV float64 // newest member by time, for step compaction
	medians      []float64
}

func newTierRing(t Tier) *tierRing {
	return &tierRing{res: t.Resolution, ring: ring[Bucket]{max: t.Capacity}}
}

// bucketStart aligns a timestamp down to its bucket boundary.
func (t *tierRing) bucketStart(at float64) float64 {
	return math.Floor(at/t.res) * t.res
}

// rollOver seals the open bucket when data at time "at" crosses its
// boundary and (re)opens the accumulator.  Late data (older than the
// open bucket) is folded into the open bucket rather than dropped,
// trading exact alignment for completeness.
func (t *tierRing) rollOver(at float64) {
	bs := t.bucketStart(at)
	if t.open && bs > t.openStart {
		t.seal()
	}
	if !t.open {
		t.open = true
		t.openStart = bs
		t.count = 0
		t.sum = 0
		t.min = math.Inf(1)
		t.max = math.Inf(-1)
		t.lastT = math.Inf(-1)
		t.medians = t.medians[:0]
	}
}

// absorb folds one evicted raw point into the tier.
func (t *tierRing) absorb(p Point) {
	t.rollOver(p.Time)
	t.count++
	t.sum += p.Value
	t.min = math.Min(t.min, p.Value)
	t.max = math.Max(t.max, p.Value)
	if p.Time >= t.lastT {
		t.lastT, t.lastV = p.Time, p.Value
	}
	t.medians = append(t.medians, p.Value)
}

// absorbBucket folds a bucket evicted from the finer tier into this one:
// min/max merge, the average stays count-weighted exact, the median
// degrades to a median of the members' medians.  For step series the
// finer bucket's Avg already is its last value, so last-of-lasts keeps
// the semantics through the cascade.
func (t *tierRing) absorbBucket(b Bucket) {
	if b.Count <= 0 {
		return
	}
	t.rollOver(b.Start)
	t.count += b.Count
	t.sum += b.Avg * float64(b.Count)
	t.min = math.Min(t.min, b.Min)
	t.max = math.Max(t.max, b.Max)
	if b.Start >= t.lastT {
		t.lastT, t.lastV = b.Start, b.Avg
	}
	t.medians = append(t.medians, b.Median)
}

// seal pushes the open bucket into the ring; the bucket the ring evicts
// to make room cascades into the next-coarser tier.
func (t *tierRing) seal() {
	if !t.open {
		return
	}
	t.open = false
	if t.count == 0 {
		return
	}
	// Sealing runs under the series write lock and owns the scratch
	// buffer, so the in-place (allocation-free) summary is safe here.
	t.seals++
	b := t.bucket(stats.SummarizeInPlace(t.medians).Median)
	if evicted, full := t.ring.push(b); full && t.next != nil {
		t.next.absorbBucket(evicted)
	}
}

// bucket shapes the open accumulator into a Bucket.  Step series report
// the newest member as both Avg and Median — the state at the bucket
// end — so windowed queries over downsampled alert history never show
// values that were never recorded.
func (t *tierRing) bucket(median float64) Bucket {
	avg := t.sum / float64(t.count)
	if t.step {
		avg, median = t.lastV, t.lastV
	}
	return Bucket{
		Start:  t.openStart,
		Res:    t.res,
		Count:  t.count,
		Min:    t.min,
		Median: median,
		Max:    t.max,
		Avg:    avg,
	}
}

// snapshot copies the sealed buckets oldest-first, appending the open
// bucket as a provisional aggregate so fresh evictions stay queryable.
func (t *tierRing) snapshot() []Bucket {
	out := t.ring.appendTo(make([]Bucket, 0, t.ring.n+1))
	if t.open && t.count > 0 {
		// Snapshots run under a shared read lock: the copying summary
		// keeps concurrent readers from sorting the scratch buffer.
		out = append(out, t.bucket(stats.Summarize(t.medians).Median))
	}
	return out
}

// Tiers returns the store's downsampling configuration (nil when the
// store keeps raw points only).
func (st *Store) Tiers() []Tier { return append([]Tier(nil), st.tiers...) }

// Buckets returns one series' downsampled buckets at the given tier
// resolution with Start in [from, to], oldest first (to < 0 means until
// the newest bucket).  The newest bucket may be provisional (still
// accumulating); resolutions not configured as a tier return nil.
func (st *Store) Buckets(k Key, resolution, from, to float64) []Bucket {
	s := st.lookup(k)
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, t := range s.tiers {
		if t.res != resolution {
			continue
		}
		all := t.snapshot()
		out := all[:0:0]
		for _, b := range all {
			if b.Start < from || (to >= 0 && b.Start > to) {
				continue
			}
			out = append(out, b)
		}
		return out
	}
	return nil
}

// stitch merges downsampled history below the raw coverage boundary with
// the raw points themselves: each age range is served by the finest
// level that still retains it (raw where available, then tier by tier
// toward the coarsest).  cover is the oldest raw time the series holds
// (+Inf when it holds none) — not raw[0], since raw may be a window
// that skipped the oldest blocks.  A bucket is kept when it starts
// strictly below the boundary: its members are evictions, all older
// than the retained raw points, so the result stays non-overlapping and
// time-ordered.  (Skipping on End() > cover instead would drop the
// bucket holding data older than — but within one resolution of — the
// oldest raw point, losing e.g. a point that falls exactly on a sealed
// bucket's End.)
func stitch(raw []Point, cover float64, tiers [][]Bucket, from, to float64) []Point {
	var older []Point
	for _, buckets := range tiers {
		lowest := cover
		for i := len(buckets) - 1; i >= 0; i-- {
			b := buckets[i]
			if b.Start >= cover {
				continue
			}
			if b.Start < lowest {
				lowest = b.Start
			}
			if b.Start < from || (to >= 0 && b.Start > to) {
				continue
			}
			older = append(older, b.Point())
		}
		cover = lowest
	}
	sort.Slice(older, func(i, j int) bool { return older[i].Time < older[j].Time })
	out := make([]Point, 0, len(older)+len(raw))
	out = append(out, older...)
	for _, p := range raw {
		if p.Time < from || (to >= 0 && p.Time > to) {
			continue
		}
		out = append(out, p)
	}
	return out
}
