package monitor

import (
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"likwid/internal/telemetry"
)

// Point is one (time, value) observation of a series.
type Point struct {
	Time  float64 `json:"time"`
	Value float64 `json:"value"`
}

// Compaction selects how a series' evicted raw points fold into its
// retention buckets.
type Compaction int

const (
	// CompactMean is the default for gauges and rates: a bucket's
	// windowed value is the average of its members.
	CompactMean Compaction = iota
	// CompactLast keeps last-value semantics for sparse step series
	// (alert transitions, state flags): a bucket's windowed value is
	// its chronologically newest member, so a 1→0 transition pair
	// landing in one bucket reads as 0 — the state at the bucket end —
	// instead of averaging into 0.5 noise.
	CompactLast
)

// series is one metric's raw points plus its downsampled retention
// tiers.  The newest raw points sit in a small uncompressed head; every
// blockPoints of them are sealed into a Gorilla-coded block (1–2 B a
// point for steady series), and the oldest block is decoded back only
// as its points are evicted (see rawPoints).  Both parts grow with what
// they hold, never past the store's capacity (-retain) raw points or
// Tier.Capacity buckets, so a series costs memory for its data, not for
// its bound.  Old points are not discarded when the series is full:
// they are compacted into the tiers' buckets one at a time as they are
// evicted, so long retentions degrade in resolution instead of silently
// losing history.
type series struct {
	mu    sync.RWMutex
	key   Key // immutable after create; lets interned handles journal
	raw   rawPoints
	tiers []*tierRing

	// Self-telemetry accounting.  Plain (non-atomic) counters bumped
	// under the mutex the append already holds: no extra atomics on the
	// hot path, no shared cache line across series, and Store.Stats sums
	// them at snapshot time — the pull model the telemetry package asks
	// components to use.
	appends   uint64
	evictions uint64

	// shown is the point /metrics serves: the newest by time, ties to
	// the later append, so a replayed or late-arriving batch never
	// regresses it while a corrected re-push of the same instant wins
	// (an agent restarting with a stable source and a reset clock shows
	// its old high-water mark until its clock catches up).  It starts at
	// -Inf; restoring state leaves it there.  exposed is set once an
	// HTTPSink was handed the series (Write, /ingest): /metrics lists
	// those, not what engines append straight into the store.
	shown   Point
	exposed atomic.Bool

	// shape remembers the last batch shape resolved with this series as
	// row 0 (see Store.shapeOf).  It holds series, never keys: the rows'
	// own keys are what a hit is checked against, so the memo pins no
	// ingest or WAL payload bytes.
	shape atomic.Pointer[[]*series]
}

func (s *series) append(p Point) {
	s.mu.Lock()
	s.appendLocked(p)
	s.mu.Unlock()
}

// appendColumns appends one column group's rows under a single lock.
func (s *series) appendColumns(times, values []float64) {
	s.mu.Lock()
	for i, t := range times {
		s.appendLocked(Point{Time: t, Value: values[i]})
	}
	s.mu.Unlock()
}

func (s *series) appendLocked(p Point) {
	s.appends++
	if !(p.Time < s.shown.Time) {
		s.shown = p
	}
	tiered := len(s.tiers) > 0
	if old, full := s.raw.push(p, tiered); full {
		s.evictions++
		if tiered {
			// Evictions feed the finest tier only; buckets evicted from tier
			// N's ring cascade into tier N+1 inside seal, so each tier's data
			// flows downward instead of every tier re-reading raw points.
			s.tiers[0].absorb(old)
		}
	}
}

// retainedInto copies the raw points that may fall in [from, to] (into
// buf's backing array when it fits) and every tier's buckets under one
// lock, so stitched Window queries see a consistent cut of the series.
// cover is the oldest raw time held — the stitch boundary — and is only
// computed for a tiered series.  A window starting at or after cover is
// raw-covered: stitch keeps only buckets starting below cover and at or
// after from, so none, and the tiers are not read (tiers stays nil).
func (s *series) retainedInto(buf []Point, from, to float64) (raw []Point, tiers [][]Bucket, cover float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	raw = s.raw.appendRange(buf, from, to)
	if raw == nil && s.raw.n > 0 {
		// A series with points answers an empty window with an empty
		// slice, not nil: /query renders the two differently.
		raw = []Point{}
	}
	if len(s.tiers) == 0 {
		return raw, nil, 0
	}
	if cover = s.raw.oldestTime(); s.raw.n > 0 && from >= cover {
		return raw, nil, cover
	}
	for _, t := range s.tiers {
		tiers = append(tiers, t.snapshot())
	}
	return raw, tiers, cover
}

// expose marks the series as one /metrics lists; the load first keeps
// a steady Write from dirtying the cache line.
func (s *series) expose() {
	if !s.exposed.Load() {
		s.exposed.Store(true)
	}
}

func (s *series) latest() (Point, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.raw.last, s.raw.n > 0
}

func (s *series) len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.raw.n
}

// Store is the agent's in-memory time-series database: one bounded
// series of raw points per (source, metric, scope, id) behind an
// interned, copy-on-write key index, with optional downsampled
// retention tiers fed by raw evictions.
//
// The index is an immutable map snapshot behind an atomic pointer: the
// hot lookup is one atomic load plus one typed map access — the runtime
// hashes the small Key struct in place, with no string building, no
// interface boxing, no striped locks, and no shared atomic
// read-modify-write, so concurrent appenders scale without touching a
// common cache line.  Series creation (rare: the key set of a node is
// tiny and stable) clones the map under a mutex and publishes the new
// snapshot.
type Store struct {
	capacity int
	tiers    []Tier

	index atomic.Pointer[map[Key]*series] // immutable snapshot
	mu    sync.Mutex                      // serializes snapshot replacement

	// journal, when set, observes every append after it lands in its
	// series — the write-ahead-log hook.  It is an atomic pointer so the
	// hot append path pays one load and no lock; implementations must
	// not block (the persist WAL copies points into a bounded queue and
	// drops-with-a-counter when it is full).
	journal atomic.Pointer[Journal]

	// inv is the read-side inverted selector index (see index.go),
	// maintained on the series-creation slow path only.
	inv *invertedIndex

	// refused counts samples dropped because their key is one the wire,
	// and so the WAL and snapshots, cannot carry (validKey).
	refused atomic.Uint64
}

// Journal observes appends for durability, after the points landed in
// their series.  Single appends (Store.Append, Series.Append) arrive
// through Record as plain values, so the hot path never allocates; batch
// appends (AppendBatch, an accepted /ingest payload) arrive whole through
// RecordBatch.  Both must be safe for concurrent use and must not block,
// and RecordBatch must neither keep nor modify the slice.
type Journal interface {
	Record(k Key, p Point)
	RecordBatch(samples []Sample)
}

// SetJournal installs (or, with nil, removes) the append journal.
// Install it after restoring state and before serving traffic so
// replayed points are not re-journaled.
func (st *Store) SetJournal(j Journal) {
	if j == nil {
		st.journal.Store(nil)
		return
	}
	st.journal.Store(&j)
}

func (st *Store) record(k Key, p Point) {
	if jp := st.journal.Load(); jp != nil {
		(*jp).Record(k, p)
	}
}

// NewStore creates a store retaining up to capacity raw points per series
// (default 1024 when capacity <= 0).  Optional tiers add downsampled
// retention: raw points evicted from a series are compacted into
// min/median/max/avg buckets of the finest tier, and buckets evicted
// from each tier's ring cascade into the next-coarser tier.
func NewStore(capacity int, tiers ...Tier) *Store {
	st := &Store{capacity: capacity, tiers: append([]Tier(nil), tiers...), inv: newInvertedIndex()}
	if st.capacity <= 0 {
		st.capacity = 1024
	}
	idx := map[Key]*series{}
	st.index.Store(&idx)
	return st
}

// lookup resolves a key through the interned snapshot; nil means the
// series does not exist.
func (st *Store) lookup(k Key) *series {
	return (*st.index.Load())[k]
}

// getOrCreate stays small enough to inline into the hot append paths:
// the snapshot hit returns directly, the miss defers to create.  It
// returns nil for a key validKey refuses.
func (st *Store) getOrCreate(k Key) *series {
	if s := (*st.index.Load())[k]; s != nil {
		return s
	}
	return st.create(k)
}

// create is the rare cold path of getOrCreate: a batch of one.
func (st *Store) create(k Key) *series {
	st.ensureMany([]Key{k})
	return st.lookup(k)
}

// newSeries builds one series with the store's tier configuration.
// It keeps its own copies of the key's strings: ingest and WAL replay
// resolve keys whose strings alias a whole payload, which the index must
// not pin for the life of the store.
func (st *Store) newSeries(k Key) *series {
	k.Source, k.Metric = strings.Clone(k.Source), strings.Clone(k.Metric)
	s := &series{key: k, raw: newRawPoints(st.capacity), shown: Point{Time: math.Inf(-1)}}
	for _, t := range st.tiers {
		s.tiers = append(s.tiers, newTierRing(t))
	}
	// Chain the cascade: tier N's ring evictions compact into tier N+1.
	for i := 0; i+1 < len(s.tiers); i++ {
		s.tiers[i].next = s.tiers[i+1]
	}
	return s
}

// validKey reports whether k is a key the v4 wire carries — the
// decoders' own metric, id and label-count checks, and a scope
// ParseScope names.  The store creates no other series: one the WAL
// could not frame would cost every frame it shares, and every snapshot.
// A merged label set (MergeLabels) can exceed the count.
func validKey(k Key) bool {
	return checkMetric(k.Metric) == nil && checkID(k.ID) == nil && uint(k.Scope) < uint(len(scopeNames)) &&
		k.Labels.Len() <= maxLabels
}

// ensureMany creates every not-yet-present valid key in one snapshot
// clone and one bulk index insert — the cold-batch path (WAL replay,
// snapshot restore, first push from a new agent), where per-key create
// would clone an O(N) map N times.
func (st *Store) ensureMany(keys []Key) {
	st.mu.Lock()
	defer st.mu.Unlock()
	cur := *st.index.Load()
	var fresh []Key
	for _, k := range keys {
		if cur[k] == nil && validKey(k) {
			fresh = append(fresh, k)
		}
	}
	if len(fresh) == 0 {
		return
	}
	next := make(map[Key]*series, len(cur)+len(fresh))
	for kk, vv := range cur {
		next[kk] = vv
	}
	created := fresh[:0]
	for _, k := range fresh {
		if next[k] != nil { // duplicate within the batch
			continue
		}
		s := st.newSeries(k)
		next[s.key] = s
		created = append(created, s.key)
	}
	st.index.Store(&next)
	st.inv.addMany(created)
}

// Series is an interned handle to one series: resolving the key once
// pins the series, so hot paths appending the same series repeatedly (a
// receiver fanning in a pushed batch, a benchmark loop) skip the shard
// map lookup per point.
type Series struct {
	st *Store
	s  *series
}

// Intern resolves (creating if needed) the series for k and returns a
// reusable handle.  Handles stay valid for the life of the store; one
// for a refused key drops (and counts) what it is given.
func (st *Store) Intern(k Key) Series { return Series{st: st, s: st.getOrCreate(k)} }

// Append records one observation through the interned handle.
func (h Series) Append(p Point) {
	if h.s == nil {
		h.st.refused.Add(1)
		return
	}
	h.s.append(p)
	h.st.record(h.s.key, p)
}

// Latest returns the newest point of the interned series.
func (h Series) Latest() (Point, bool) {
	if h.s == nil {
		return Point{}, false
	}
	return h.s.latest()
}

// Append records one observation; a key the wire cannot carry is
// dropped and counted.
func (st *Store) Append(k Key, p Point) {
	s := st.getOrCreate(k)
	if s == nil {
		st.refused.Add(1)
		return
	}
	s.append(p)
	st.record(k, p)
}

// AppendBatch records every sample of a batch: each row's series is
// resolved (a repeated shape once, see shapeOf), the points are
// appended, and the journal observes the batch in one call.  Samples of
// refused keys are dropped and counted; the journal never sees them.
func (st *Store) AppendBatch(b Batch) {
	samples, rows := b.Samples, st.shapeOf(b.Samples)
	refused := 0
	for i, s := range samples {
		if rows[i] == nil {
			refused++
			continue
		}
		rows[i].append(Point{Time: s.Time, Value: s.Value})
	}
	if refused > 0 {
		st.refused.Add(uint64(refused))
		kept := make([]Sample, 0, len(samples)-refused)
		for i, s := range samples {
			if rows[i] != nil {
				kept = append(kept, s)
			}
		}
		samples = kept
	}
	if jp := st.journal.Load(); jp != nil && len(samples) > 0 {
		(*jp).RecordBatch(samples)
	}
}

// shapeOf returns the series of every sample, in order (nil for a
// refused key).  A batch's rows repeat batch after batch — a
// collector's tick, a receiver's bulk load, WAL replay — so the last
// shape resolved with a series as row 0 is remembered on that series:
// a repeated batch pays row 0's index lookup and one key compare per
// row, and allocates nothing.  A miss resolves every row, creating the
// unseen series in one ensureMany pass.  A shape with a refused row is
// not remembered.  Appenders whose shapes share row 0 each check every
// row, so they can only replace each other's memo, never misroute a
// point.
func (st *Store) shapeOf(samples []Sample) []*series {
	if rows := st.remembered(samples); rows != nil || len(samples) == 0 {
		return rows
	}
	rows := make([]*series, len(samples))
	idx := *st.index.Load()
	var fresh []Key
	for i, s := range samples {
		if rows[i] = idx[s.Key()]; rows[i] == nil {
			fresh = append(fresh, s.Key())
		}
	}
	if len(fresh) > 0 {
		st.ensureMany(fresh)
		idx = *st.index.Load()
		for i, sr := range rows {
			if sr == nil {
				rows[i] = idx[samples[i].Key()]
			}
		}
	}
	if !slices.Contains(rows, nil) {
		rows[0].shape.Store(&rows)
	}
	return rows
}

// remembered returns the series of samples when their shape is the one
// remembered on row 0's series, else nil.  It never creates a series.
func (st *Store) remembered(samples []Sample) []*series {
	if len(samples) == 0 {
		return nil
	}
	s0 := st.lookup(samples[0].Key())
	if s0 == nil {
		return nil
	}
	sh := s0.shape.Load()
	if sh == nil || len(*sh) != len(samples) {
		return nil
	}
	for i, sr := range *sh {
		if samples[i].Key() != sr.key {
			return nil
		}
	}
	return *sh
}

// resolveGroups sets every group's store series, creating the unseen
// ones in one ensureMany pass (a fleet's first push is one index clone,
// not one per series).
func (st *Store) resolveGroups(b *groupBatch) {
	idx := *st.index.Load()
	var fresh []Key
	for i := range b.groups {
		g := &b.groups[i]
		if g.series = idx[g.key]; g.series == nil {
			fresh = append(fresh, g.key)
		}
	}
	if len(fresh) > 0 {
		st.ensureMany(fresh)
		idx = *st.index.Load()
		for i := range b.groups {
			if g := &b.groups[i]; g.series == nil {
				g.series = idx[g.key]
			}
		}
	}
}

// appendGroups lands an ingest payload's columns through its resolved
// groups: each group's rows are appended under one series lock, and the
// journal observes the batch in one call.  It returns the rows appended
// and, when a journal is installed or the caller wants them (the forward
// hook), the batch as samples under the series' own keys (nothing
// aliases the request).
func appendGroups[G any, P lander[G]](st *Store, groups []G, times, values []float64, wantSamples bool) ([]Sample, int) {
	rows := 0
	for i := range groups {
		s, lo, hi := P(&groups[i]).land()
		s.appendColumns(times[lo:hi], values[lo:hi])
		rows += hi - lo
	}
	jp := st.journal.Load()
	if jp == nil && !wantSamples {
		return nil, rows
	}
	samples := make([]Sample, 0, rows)
	for i := range groups {
		s, lo, hi := P(&groups[i]).land()
		k := &s.key
		for r := lo; r < hi; r++ {
			samples = append(samples, Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope, ID: k.ID,
				Labels: k.Labels, Time: times[r], Value: values[r]})
		}
	}
	if jp != nil && len(samples) > 0 {
		(*jp).RecordBatch(samples)
	}
	return samples, rows
}

// SetCompaction fixes how one series folds evicted raw points into its
// retention tiers.  The engine marks its sparse 0/1 "alert/<name>"
// transition series CompactLast so downsampled history keeps the state
// at each bucket end instead of averaging transitions into noise.
// Idempotent; safe to call on every append.
func (st *Store) SetCompaction(k Key, c Compaction) {
	s := st.getOrCreate(k)
	if s == nil {
		return
	}
	s.mu.Lock()
	for _, t := range s.tiers {
		t.step = c == CompactLast
	}
	s.mu.Unlock()
}

// Window returns the retained points of one series with from <= Time <= to,
// oldest first.  A negative "to" means "until the newest point".  Ranges
// older than the raw points are served from the downsampled tiers, finest
// resolution first: each bucket becomes one point (bucket start, average —
// or newest member for CompactLast series), clipped so the stitched
// result is non-overlapping and time-ordered.
func (st *Store) Window(k Key, from, to float64) []Point {
	return st.WindowInto(k, from, to, nil)
}

// WindowInto is Window with caller-owned buffer reuse: the result is
// built in buf's backing array when it fits, so a caller evaluating
// windows in a loop (the alert and derive engines, the streaming /query
// encoder) amortizes the copy to zero steady-state allocations.  Only
// the sealed blocks overlapping [from, to] are decoded, straight into
// buf.  The returned slice aliases buf; pass it back (or its cap-grown
// successor) on the next call.  Tiered series allocate only when the
// window reaches below the oldest raw point and stitches buckets in.
func (st *Store) WindowInto(k Key, from, to float64, buf []Point) []Point {
	s := st.lookup(k)
	if s == nil {
		return nil
	}
	raw, tiers, cover := s.retainedInto(buf[:0], from, to)
	// Appends are normally time-ordered, but ingested batches may not be
	// (an agent restart resets its clock): sort defensively so the
	// oldest-first contract holds.
	sorted := true
	for i := 1; i < len(raw); i++ {
		if raw[i].Time < raw[i-1].Time {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.SliceStable(raw, func(i, j int) bool { return raw[i].Time < raw[j].Time })
	}
	if len(tiers) == 0 {
		// Filter in place: the write index never passes the read index.
		out := raw[:0]
		for _, p := range raw {
			if p.Time < from || (to >= 0 && p.Time > to) {
				continue
			}
			out = append(out, p)
		}
		return out
	}
	return stitch(raw, cover, tiers, from, to)
}

// Latest returns the newest point of a series.
func (st *Store) Latest(k Key) (Point, bool) {
	s := st.lookup(k)
	if s == nil {
		return Point{}, false
	}
	return s.latest()
}

// Len reports the retained point count of a series.
func (st *Store) Len(k Key) int {
	s := st.lookup(k)
	if s == nil {
		return 0
	}
	return s.len()
}

// StoreStats is one pass over the store's self-accounting: series count
// and the summed per-series append/eviction/compaction counters.
type StoreStats struct {
	Series      int
	Appends     uint64
	Evictions   uint64
	Compactions uint64 // tier buckets sealed across all series and tiers
	Refused     uint64 // samples dropped for a key the wire cannot carry
}

// Stats sums the per-series counters over the current index snapshot.
// It takes each series' read lock briefly; appends proceed on other
// series concurrently.
func (st *Store) Stats() StoreStats {
	idx := *st.index.Load()
	out := StoreStats{Series: len(idx), Refused: st.refused.Load()}
	for _, s := range idx {
		s.mu.RLock()
		out.Appends += s.appends
		out.Evictions += s.evictions
		for _, t := range s.tiers {
			out.Compactions += t.seals
		}
		s.mu.RUnlock()
	}
	return out
}

// Instrument registers the store's self-metrics on reg as
// read-on-snapshot funcs — the store keeps its cheap per-series
// accounting and pays nothing extra per append.
func (st *Store) Instrument(reg *telemetry.Registry) {
	reg.GaugeFunc("likwid_store_series", func() float64 {
		return float64(len(*st.index.Load()))
	})
	reg.CounterFunc("likwid_store_appends_total", func() float64 {
		return float64(st.Stats().Appends)
	})
	reg.CounterFunc("likwid_store_evictions_total", func() float64 {
		return float64(st.Stats().Evictions)
	})
	reg.CounterFunc("likwid_store_compactions_total", func() float64 {
		return float64(st.Stats().Compactions)
	})
	reg.CounterFunc("likwid_store_refused_total", func() float64 {
		return float64(st.refused.Load())
	})
	reg.GaugeFunc("likwid_store_label_sets", func() float64 {
		return float64(InternedLabelSets())
	})
	// Selector-index health: the generation says how often the key set
	// grows (engines re-resolve rule caches when it moves), postings is
	// the index's footprint in list entries.
	reg.GaugeFunc("likwid_store_index_generation", func() float64 {
		return float64(st.inv.gen.Load())
	})
	reg.GaugeFunc("likwid_store_index_postings", func() float64 {
		return float64(st.inv.size())
	})
}

// Keys lists every series, sorted by source, metric, scope, id, labels
// for stable output (local series first, then one block per agent,
// unlabelled before labelled variants of the same series).  The order
// is read off the index's incrementally maintained permutation — one
// O(N) copy, no per-call sort, no comparator string building.
func (st *Store) Keys() []Key {
	return st.inv.sortedKeys()
}
