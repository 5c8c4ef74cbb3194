package monitor

import (
	"fmt"
	"math"
	"slices"
)

// SeriesState is the decoded snapshot of one series: everything needed
// to rebuild its raw points and retention tiers in a fresh store, with
// Raw holding the points themselves (a restore re-seals them).  Snapshot
// files carry SealedState instead, which keeps the blocks as they are.
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
// contents of the named series.  Boot-time recovery restores sealed
// blocks instead (RestoreSealed); RestoreState is the point-by-point
// reference that snapshot tests hold RestoreSealed to.  Call it before
// SetJournal, so restored points are not re-journaled.  States are
// adapted to the store's current shape: raw points beyond the store's
// capacity keep the newest, and tier states are matched to configured
// tiers by resolution — a tier dumped under an old configuration that
// no longer exists is dropped rather than mis-folded.
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
		if s := st.lookup(state.Key); s != nil { // nil: a refused key
			s.restoreState(state)
		}
	}
}

func (s *series) restoreState(state SeriesState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.raw.reset(state.Raw)
	s.appends += uint64(len(state.Raw))
	s.restoreTiers(state.Tiers, state.Compaction)
}

func (s *series) restoreTiers(tiers []TierState, c Compaction) {
	for _, t := range s.tiers {
		t.step = c == CompactLast
		for _, ts := range tiers {
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

// SealedState is one series as the store holds it, for snapshots that
// neither decode nor re-seal: its sealed blocks verbatim (the oldest
// possibly part-evicted), its newest points in the same column codec,
// and its tiers.  ExportSealed hands them out; RestoreSealed installs
// them.
type SealedState struct {
	Key        Key
	Toff       int           // points of Blocks[0] already evicted
	Blocks     []SealedBlock // oldest first, blockPoints points each
	Head       SealedBlock   // the newest points, fewer than a block's; Tmin, Tmax unread
	Last       Point         // the newest point, when the series holds any
	Tiers      []TierState
	Compaction Compaction
}

// Len is how many points the state holds.
func (s *SealedState) Len() int {
	n := s.Head.N - s.Toff
	for _, b := range s.Blocks {
		n += b.N
	}
	return n
}

// sealedExport is ExportSealed's reused state and buffers.
type sealedExport struct {
	state SealedState
	data  []byte  // block bytes, copied under the series lock
	pts   []Point // a too-small series' tail, joined to its head
}

// ExportSealed hands fn the sealed state of every series of keys, in
// the order given, without decoding a block.  A series is copied under
// its read lock, block bytes included — a seal reuses a drained block's
// bytes, so nothing may alias the series once the lock is released —
// into one state that is reused for the next series: fn must keep
// nothing of it.  Memory therefore follows the largest series, not the
// store.  The walk stops at fn's first error.
func (st *Store) ExportSealed(keys []Key, fn func(*SealedState) error) error {
	var e sealedExport
	for _, k := range keys {
		if s := st.lookup(k); s != nil {
			s.exportSealed(&e)
			if err := fn(&e.state); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *series) exportSealed(e *sealedExport) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r := &s.raw
	out := &e.state
	*out = SealedState{Key: s.key, Blocks: out.Blocks[:0], Tiers: out.Tiers[:0], Last: r.last}
	head := r.head
	size := blockBytes
	if r.toff < r.tn {
		if r.oldest.Data != nil {
			size += len(r.oldest.Data)
		} else { // a series too small to seal: its tail is a former head
			e.pts = append(append(e.pts[:0], r.tail[r.toff:]...), head...)
			head = e.pts
		}
	}
	for i := range r.blocks.n {
		size += len(r.blocks.at(i).Data)
	}
	data := slices.Grow(e.data[:0], size)
	add := func(b *block) {
		data = append(data, b.Data...)
		out.Blocks = append(out.Blocks, *b)
		out.Blocks[len(out.Blocks)-1].Data = data[len(data)-len(b.Data) : len(data) : len(data)]
	}
	if r.toff < r.tn && r.oldest.Data != nil {
		add(&r.oldest)
		out.Toff = r.toff
	}
	for i := range r.blocks.n {
		add(r.blocks.at(i))
	}
	out.Head = appendBlock(data, head)
	e.data = data
	for _, t := range s.tiers {
		out.Tiers = append(out.Tiers, t.state())
	}
	if len(s.tiers) > 0 && s.tiers[0].step {
		out.Compaction = CompactLast
	}
}

// RestoreSealed installs states that ExportSealed handed out, as
// RestoreState does decoded ones, keeping each series' newest points up
// to the store's capacity.  Every state is checked first: each block
// must decode, into scratch, to its N points inside [Tmin, Tmax], and
// Last is set to the newest of them.  A state that fails, or that no
// live series could have produced, fails the call before anything is
// installed.  Then the block bytes are installed verbatim; they pass to
// the store, and the caller must not reuse them.
func (st *Store) RestoreSealed(states []SealedState) error {
	for i := range states {
		if err := states[i].check(); err != nil {
			return fmt.Errorf("monitor: series %d (%s): %w", i, states[i].Key.Metric, err)
		}
	}
	keys := make([]Key, len(states))
	for i := range states {
		keys[i] = states[i].Key
	}
	st.ensureMany(keys)
	for i := range states {
		if s := st.lookup(states[i].Key); s != nil { // nil: a refused key
			s.restoreSealed(&states[i])
		}
	}
	return nil
}

// check decodes every block of s into scratch and compares what it
// finds with what s says of it.
func (s *SealedState) check() error {
	if s.Compaction != CompactMean && s.Compaction != CompactLast {
		return fmt.Errorf("unknown compaction %d", s.Compaction)
	}
	if s.Toff < 0 || (len(s.Blocks) == 0 && s.Toff != 0) || (len(s.Blocks) > 0 && s.Toff >= s.Blocks[0].N) {
		return fmt.Errorf("tail offset %d outside the oldest block", s.Toff)
	}
	if s.Head.N >= blockPoints {
		return fmt.Errorf("a head of %d points, a block's worth", s.Head.N)
	}
	var scratch [blockPoints]Point
	var newest []Point
	decode := func(b *SealedBlock, sealed bool) error {
		pts, err := decodeBlock(b.Data, b.N, scratch[:0])
		if err != nil {
			return err
		}
		if tmin, tmax := timeSpan(pts); sealed && (!sameBits(tmin, b.Tmin) || !sameBits(tmax, b.Tmax)) {
			return fmt.Errorf("a block's points span [%v, %v], it says [%v, %v]", tmin, tmax, b.Tmin, b.Tmax)
		}
		if len(pts) > 0 {
			newest = pts[len(pts)-1:]
		}
		return nil
	}
	for i := range s.Blocks {
		if s.Blocks[i].N != blockPoints {
			return fmt.Errorf("a sealed block of %d points, want %d", s.Blocks[i].N, blockPoints)
		}
		if err := decode(&s.Blocks[i], true); err != nil {
			return err
		}
	}
	if err := decode(&s.Head, false); err != nil {
		return err
	}
	if newest != nil {
		s.Last = newest[0]
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (s *series) restoreSealed(state *SealedState) {
	var head []Point
	if state.Head.N > 0 {
		head, _ = decodeBlock(state.Head.Data, state.Head.N, make([]Point, 0, state.Head.N)) // checked
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.raw.restoreSealed(state.Blocks, state.Toff, head, state.Last)
	s.appends += uint64(s.raw.n)
	s.restoreTiers(state.Tiers, state.Compaction)
}

// restoreSealed replaces the contents with blocks (the first toff points
// gone) then head, keeping the newest max points: whole blocks from the
// oldest, then points of the oldest kept block, then of the head.  What
// is kept fits the block ring, which holds max/blockPoints blocks.
func (r *rawPoints) restoreSealed(blocks []SealedBlock, toff int, head []Point, last Point) {
	n := len(head) - toff
	for _, b := range blocks {
		n += b.N
	}
	if drop := n - r.max; drop > 0 {
		for len(blocks) > 0 && drop >= blocks[0].N-toff {
			drop -= blocks[0].N - toff
			blocks, toff = blocks[1:], 0
		}
		if len(blocks) > 0 {
			toff += drop
		} else {
			head = head[drop:]
		}
		n = r.max
	}
	r.oldest, r.tail, r.tn, r.toff, r.spare = block{}, nil, 0, 0, nil
	if toff > 0 {
		r.oldest, r.tn, r.toff = blocks[0], blocks[0].N, toff
		blocks = blocks[1:]
	}
	r.blocks.buf, r.blocks.head, r.blocks.n = blocks, 0, len(blocks)
	r.head, r.n, r.last = head, n, last
}
