package monitor

import "math"

// SeriesState is the portable snapshot of one series: everything needed
// to rebuild its raw points and retention tiers in a fresh store.  It is
// the unit the persist package serializes — domain types here, wire
// DTOs there.  Raw holds the points decoded: the sealed-block layout is
// the store's own, and a restore re-seals them.
type SeriesState struct {
	Key        Key
	Raw        []Point // oldest first
	Tiers      []TierState
	Compaction Compaction
}

// TierState is one tier's sealed buckets plus its open accumulator.
type TierState struct {
	Res     float64
	Buckets []Bucket // sealed, oldest first
	Open    *OpenBucketState
}

// OpenBucketState is the open bucket's accumulator, carried verbatim so
// a restored series seals the identical bucket the crashed one would
// have (count-weighted average, exact min/max, the median scratch set).
type OpenBucketState struct {
	Start        float64
	Count        int
	Min, Max     float64
	Sum          float64
	LastT, LastV float64
	Medians      []float64
}

// DumpState snapshots every series, sorted by key for deterministic
// output.  Each series is copied under its read lock, so individual
// series are internally consistent; the store keeps serving appends on
// other series while the dump runs.
func (st *Store) DumpState() []SeriesState {
	keys := st.Keys()
	out := make([]SeriesState, 0, len(keys))
	for _, k := range keys {
		s := st.lookup(k)
		if s == nil {
			continue
		}
		out = append(out, s.dumpState())
	}
	return out
}

func (s *series) dumpState() SeriesState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	state := SeriesState{Key: s.key, Raw: s.raw.appendRange(make([]Point, 0, s.raw.n), math.Inf(-1), -1)}
	for _, t := range s.tiers {
		state.Tiers = append(state.Tiers, t.state())
	}
	if len(s.tiers) > 0 && s.tiers[0].step {
		state.Compaction = CompactLast
	}
	return state
}

func (t *tierRing) state() TierState {
	ts := TierState{Res: t.res, Buckets: t.ring.appendTo(make([]Bucket, 0, t.ring.n))}
	if t.open && t.count > 0 {
		ts.Open = &OpenBucketState{
			Start: t.openStart, Count: t.count,
			Min: t.min, Max: t.max, Sum: t.sum,
			LastT: t.lastT, LastV: t.lastV,
			Medians: append([]float64(nil), t.medians...),
		}
	}
	return ts
}

// RestoreState loads series states into the store, replacing any prior
// contents of the named series.  Intended for boot-time recovery before
// traffic (and before SetJournal, so restored points are not
// re-journaled).  States are adapted to the store's current shape: raw
// points beyond the store's capacity keep the newest, and tier states are
// matched to configured tiers by resolution — a tier dumped under an
// old configuration that no longer exists is dropped rather than
// mis-folded.
func (st *Store) RestoreState(states []SeriesState) {
	// Bulk-create first: one snapshot clone and one index re-sort for
	// the whole restore, instead of per-series clones at O(N²) cost on
	// a large snapshot.
	keys := make([]Key, len(states))
	for i := range states {
		keys[i] = states[i].Key
	}
	st.ensureMany(keys)
	for _, state := range states {
		st.lookup(state.Key).restoreState(state)
	}
}

func (s *series) restoreState(state SeriesState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.raw.reset(state.Raw)
	s.appends += uint64(len(state.Raw))
	for _, t := range s.tiers {
		t.step = state.Compaction == CompactLast
		for _, ts := range state.Tiers {
			if ts.Res != t.res {
				continue
			}
			t.restoreState(ts)
			break
		}
	}
}

func (t *tierRing) restoreState(ts TierState) {
	t.ring.reset(ts.Buckets)
	t.seals += uint64(len(ts.Buckets))
	t.open = false
	if o := ts.Open; o != nil && o.Count > 0 {
		t.open = true
		t.openStart = o.Start
		t.count = o.Count
		t.min, t.max = o.Min, o.Max
		t.sum = o.Sum
		t.lastT, t.lastV = o.LastT, o.LastV
		t.medians = append(t.medians[:0], o.Medians...)
	} else {
		t.count = 0
		t.sum = 0
		t.min = math.Inf(1)
		t.max = math.Inf(-1)
		t.lastT = math.Inf(-1)
		t.medians = t.medians[:0]
	}
}
