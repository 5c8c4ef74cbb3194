package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// sliceJournal keeps every journaled sample, in order.
type sliceJournal struct {
	mu      sync.Mutex
	samples []Sample
}

func (j *sliceJournal) Record(k Key, p Point) {
	j.mu.Lock()
	j.samples = append(j.samples, Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope, ID: k.ID,
		Labels: k.Labels, Time: p.Time, Value: p.Value})
	j.mu.Unlock()
}

func (j *sliceJournal) RecordBatch(samples []Sample) {
	j.mu.Lock()
	j.samples = append(j.samples, samples...)
	j.mu.Unlock()
}

// forgetShapes drops every remembered batch shape, so the next
// AppendBatch resolves each of its rows through the index.
func forgetShapes(st *Store) {
	for _, s := range *st.index.Load() {
		s.shape.Store(nil)
	}
}

// shapeFamilies draws batch shapes built to defeat a careless memo:
// each family is a base shape plus variants sharing its row 0 — one
// per key field changed on one later row (a one-field twin of equal
// length), a different tail, a shorter tail, a batch naming a series
// twice, and a refused key at row 0 and further down.
func shapeFamilies(rng *rand.Rand, families int) [][]Key {
	job := func(v string) Labels {
		ls, err := MakeLabels(map[string]string{"job": v})
		if err != nil {
			panic(err)
		}
		return ls
	}
	labelSets := []Labels{{}, job("lbm"), job("stream")}
	randKey := func() Key {
		return Key{Source: []string{"", "node1", "node2"}[rng.Intn(3)], Metric: fmt.Sprintf("m%d", rng.Intn(4)),
			Scope: Scope(rng.Intn(len(scopeNames))), ID: rng.Intn(4), Labels: labelSets[rng.Intn(len(labelSets))]}
	}
	refused := Key{Metric: "", Scope: ScopeNode}
	var shapes [][]Key
	for f := 0; f < families; f++ {
		base := make([]Key, 4+rng.Intn(5))
		for i := range base {
			base[i] = randKey()
		}
		shapes = append(shapes, base)
		r := 1 + rng.Intn(len(base)-1)
		for field := 0; field < 5; field++ {
			twin := append([]Key(nil), base...)
			k := &twin[r]
			switch field {
			case 0:
				k.Source += "x"
			case 1:
				k.Metric += "x"
			case 2:
				k.Scope = (k.Scope + 1) % Scope(len(scopeNames))
			case 3:
				k.ID++
			case 4:
				k.Labels = labelSets[(slices.Index(labelSets, k.Labels)+1)%len(labelSets)]
			}
			shapes = append(shapes, twin)
		}
		tail := append([]Key(nil), base...)
		for i := 1; i < len(tail); i++ {
			tail[i] = randKey()
		}
		dup := append(append([]Key(nil), base...), base[r], base[0])
		refusedMid := append([]Key(nil), base...)
		refusedMid[r] = refused
		shapes = append(shapes, tail, base[:1+rng.Intn(len(base)-1)], dup, refusedMid,
			append([]Key{refused}, base[1:]...))
	}
	return shapes
}

func batchOf(keys []Key, t float64, rng *rand.Rand) Batch {
	b := Batch{Collector: "shape", Time: t, Samples: make([]Sample, len(keys))}
	for i, k := range keys {
		b.Samples[i] = Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope, ID: k.ID, Labels: k.Labels,
			Time: t, Value: float64(rng.Intn(1000))}
	}
	return b
}

// sameStores fails t unless two stores hold the same series, points,
// newest points and counters.
func sameStores(t *testing.T, got, want *Store) {
	t.Helper()
	if g, w := got.Keys(), want.Keys(); !reflect.DeepEqual(g, w) {
		t.Fatalf("keys differ:\n got %v\nwant %v", g, w)
	}
	for _, k := range want.Keys() {
		if g, w := got.Window(k, 0, -1), want.Window(k, 0, -1); !reflect.DeepEqual(g, w) {
			t.Fatalf("Window(%v) differs:\n got %v\nwant %v", k, g, w)
		}
		gp, gok := got.Latest(k)
		wp, wok := want.Latest(k)
		if gp != wp || gok != wok {
			t.Fatalf("Latest(%v) = %v %v, want %v %v", k, gp, gok, wp, wok)
		}
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("Stats = %+v, want %+v", g, w)
	}
}

// TestAppendBatchShapeMatchesFresh holds the store's shape memo to a
// store that resolves every batch's rows through the index: the same
// batches, drawn from shapes that share row 0, must leave the same
// series, windows, newest points, counters and journal.  The store is
// small and tiered, so points also evict and compact.
func TestAppendBatchShapeMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shapes := shapeFamilies(rng, 3)
		tiers := []Tier{{Resolution: 4, Capacity: 8}}
		memo, fresh := NewStore(16, tiers...), NewStore(16, tiers...)
		mj, fj := &sliceJournal{}, &sliceJournal{}
		memo.SetJournal(mj)
		fresh.SetJournal(fj)
		for step := 0; step < 600; step++ {
			b := batchOf(shapes[rng.Intn(len(shapes))], float64(step), rng)
			memo.AppendBatch(b)
			forgetShapes(fresh)
			fresh.AppendBatch(b)
			// HTTPSink.Write's fast path: a remembered shape names the
			// series each sample's own lookup finds.
			if rows := memo.remembered(b.Samples); rows != nil {
				for i, s := range b.Samples {
					if rows[i] != memo.lookup(s.Key()) {
						t.Fatalf("seed %d step %d: remembered row %d is not %v's series", seed, step, i, s.Key())
					}
				}
			}
		}
		sameStores(t, memo, fresh)
		if !reflect.DeepEqual(mj.samples, fj.samples) {
			t.Fatalf("seed %d: journals differ (%d vs %d samples)", seed, len(mj.samples), len(fj.samples))
		}
		if memo.Stats().Refused == 0 {
			t.Fatalf("seed %d: no batch had a refused row", seed)
		}
	}
}

// TestAppendBatchShapeConcurrent is the memo under -race: appenders
// whose shapes share row 0 replace each other's memo on every batch.
// Each appender's points carry its own times, so the stores compare
// equal whatever the interleaving.
func TestAppendBatchShapeConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := shapeFamilies(rng, 1)
	const appenders, steps = 4, 200
	memo, fresh := NewStore(appenders*steps*4), NewStore(appenders*steps*4)
	batches := make([][]Batch, appenders)
	for g := range batches {
		for step := 0; step < steps; step++ {
			at := float64(step*appenders + g)
			batches[g] = append(batches[g], batchOf(shapes[(g+step)%len(shapes)], at, rng))
		}
	}
	var wg sync.WaitGroup
	for g := range batches {
		wg.Add(1)
		go func(bs []Batch) {
			defer wg.Done()
			for _, b := range bs {
				memo.AppendBatch(b)
			}
		}(batches[g])
	}
	wg.Wait()
	for _, bs := range batches {
		for _, b := range bs {
			forgetShapes(fresh)
			fresh.AppendBatch(b)
		}
	}
	// Latest is the last point appended, which depends on the
	// interleaving; windows are time-sorted and counters are sums.
	for _, k := range fresh.Keys() {
		if g, w := memo.Window(k, 0, -1), fresh.Window(k, 0, -1); !reflect.DeepEqual(g, w) {
			t.Fatalf("Window(%v) differs:\n got %v\nwant %v", k, g, w)
		}
	}
	if g, w := memo.Stats(), fresh.Stats(); g != w {
		t.Fatalf("Stats = %+v, want %+v", g, w)
	}
}

// TestAppendBatchRepeatedShapeAllocatesNothing pins the memo's hit path:
// appending a batch of a shape the store remembers allocates nothing
// (the fill ends just after a seal, so the runs append into the head).
func TestAppendBatchRepeatedShapeAllocatesNothing(t *testing.T) {
	b := fleetBatch(4, 5, 2)
	st := NewStore(blockPoints)
	for i := 0; i < 2*blockPoints; i++ {
		st.AppendBatch(b)
	}
	if allocs := testing.AllocsPerRun(16, func() { st.AppendBatch(b) }); allocs != 0 {
		t.Fatalf("a repeated batch shape allocates %v times per AppendBatch, want 0", allocs)
	}
}

// fleetBatch is one tick of a labelled fleet: sources × metrics × thread
// ids, each source's series labelled with its job (the query-mixed
// benchmark workload's preload at 100 × 25 × 4).
func fleetBatch(sources, metrics, ids int) Batch {
	jobs := []string{"lbm", "stream", "jacobi", "hpl"}
	b := Batch{Collector: "preload", Time: 1}
	for s := 0; s < sources; s++ {
		ls, err := MakeLabels(map[string]string{"job": jobs[s%len(jobs)]})
		if err != nil {
			panic(err)
		}
		for m := 0; m < metrics; m++ {
			for id := 0; id < ids; id++ {
				b.Samples = append(b.Samples, Sample{
					Source: fmt.Sprintf("node%03d", s), Metric: fmt.Sprintf("metric_%02d", m),
					Scope: ScopeThread, ID: id, Labels: ls, Time: 1, Value: float64(len(b.Samples)),
				})
			}
		}
	}
	return b
}

// BenchmarkAppendBatchWide appends a 10k-row fleet batch tick after
// tick.  warm is the memo's hit path (CI: 0 allocs/op in a 1x run,
// whose fill ends just after a seal); cold forgets every shape before
// each append, so each row is resolved through the index.
func BenchmarkAppendBatchWide(b *testing.B) {
	for _, warm := range []bool{true, false} {
		name := map[bool]string{true: "warm", false: "cold"}[warm]
		b.Run(name, func(b *testing.B) {
			batch := fleetBatch(100, 25, 4)
			st := NewStore(blockPoints)
			tick := func(t int) {
				for i := range batch.Samples {
					batch.Samples[i].Time, batch.Samples[i].Value = float64(t), float64(t+i)
				}
				st.AppendBatch(batch)
			}
			for t := 0; t < 2*blockPoints; t++ {
				tick(t)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !warm {
					b.StopTimer()
					forgetShapes(st)
					b.StartTimer()
				}
				tick(2*blockPoints + i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch.Samples)), "ns/point")
		})
	}
}
