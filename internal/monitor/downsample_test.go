package monitor

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// captureSink records every batch it receives.
type captureSink struct {
	batches []Batch
	closed  bool
}

func (c *captureSink) Name() string        { return "capture" }
func (c *captureSink) Write(b Batch) error { c.batches = append(c.batches, b); return nil }
func (c *captureSink) Close() error        { c.closed = true; return nil }

func (c *captureSink) samples() []Sample {
	var out []Sample
	for _, b := range c.batches {
		out = append(out, b.Samples...)
	}
	return out
}

// TestDownsamplerAveragesWindows pins the hop semantics: a 5 s window
// over a 1 Hz ramp forwards one CompactMean-style average per window,
// stamped at the window start.
func TestDownsamplerAveragesWindows(t *testing.T) {
	cap := &captureSink{}
	d := NewDownsampler(5*time.Second, cap)
	for i := 0; i < 10; i++ {
		tm := float64(i)
		err := d.Write(Batch{Collector: "fwd", Time: tm, Samples: []Sample{
			{Source: "n1", Metric: "bw", Scope: ScopeNode, Time: tm, Value: tm},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	// t=0..4 closed when t=5 arrived: avg 2 at window start 0.
	got := cap.samples()
	if len(got) != 1 || got[0].Time != 0 || got[0].Value != 2 {
		t.Fatalf("mid-stream emission = %+v, want one sample t=0 v=2", got)
	}
	// Close flushes the open window t=5..9: avg 7 at start 5.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got = cap.samples()
	if len(got) != 2 || got[1].Time != 5 || got[1].Value != 7 {
		t.Fatalf("flush emission = %+v, want second sample t=5 v=7", got)
	}
	if !cap.closed {
		t.Error("downsampler did not close the wrapped sink")
	}
	if got[0].Source != "n1" || got[0].Metric != "bw" {
		t.Errorf("emitted sample lost its identity: %+v", got[0])
	}
}

// TestDownsamplerKeepsSeriesApart pins that windows accumulate per
// series key, not per metric name: two sources' streams average
// independently.
func TestDownsamplerKeepsSeriesApart(t *testing.T) {
	cap := &captureSink{}
	d := NewDownsampler(10*time.Second, cap)
	for i := 0; i < 5; i++ {
		tm := float64(i)
		_ = d.Write(Batch{Collector: "fwd", Time: tm, Samples: []Sample{
			{Source: "n1", Metric: "bw", Scope: ScopeNode, Time: tm, Value: 10},
			{Source: "n2", Metric: "bw", Scope: ScopeNode, Time: tm, Value: 20},
		}})
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	got := cap.samples()
	if len(got) != 2 {
		t.Fatalf("flush emitted %d samples, want 2 (one per source)", len(got))
	}
	// Close flushes in deterministic key order: n1 before n2.
	if got[0].Source != "n1" || got[0].Value != 10 || got[1].Source != "n2" || got[1].Value != 20 {
		t.Errorf("per-source averages = %+v, want n1=10 then n2=20", got)
	}
}

// TestDownsamplerDisabledPassesThrough pins that a zero window is the
// identity: the wrapped sink is returned unwrapped.
func TestDownsamplerDisabledPassesThrough(t *testing.T) {
	cap := &captureSink{}
	if s := NewDownsampler(0, cap); s != Sink(cap) {
		t.Error("NewDownsampler(0) wrapped the sink; want pass-through")
	}
}

// downsampleModel is the hop rule stated over a whole series at once: a
// sample's window is the running maximum of floor(t/every) over the
// series so far (a late sample folds into the open window), a window
// is forwarded, stamped at its start with the mean of its members, with
// the sample that opens the next one, and Close flushes every open
// window in key order, stamped with the newest sample time (at least 0).
type downsampleModel struct {
	every  float64
	open   map[Key]*modelWindow
	latest float64
}

type modelWindow struct {
	idx    float64
	values []float64
}

func (m *downsampleModel) emit(k Key, w *modelWindow) Sample {
	sum := 0.0
	for _, v := range w.values {
		sum += v
	}
	return Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope, ID: k.ID, Labels: k.Labels,
		Time: w.idx * m.every, Value: sum / float64(len(w.values))}
}

func (m *downsampleModel) write(b Batch) []Batch {
	var out []Sample
	for _, sm := range b.Samples {
		k := sm.Key()
		m.latest = max(m.latest, sm.Time)
		idx := math.Floor(sm.Time / m.every)
		w := m.open[k]
		switch {
		case w == nil:
			w = &modelWindow{idx: idx}
			m.open[k] = w
		case idx > w.idx:
			out = append(out, m.emit(k, w))
			w.idx, w.values = idx, nil
		}
		w.values = append(w.values, sm.Value)
	}
	if len(out) == 0 {
		return nil
	}
	return []Batch{{Collector: b.Collector, Time: b.Time, Samples: out}}
}

func (m *downsampleModel) close() []Batch {
	keys := make([]Key, 0, len(m.open))
	for k := range m.open {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return nil
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	var out []Sample
	for _, k := range keys {
		out = append(out, m.emit(k, m.open[k]))
	}
	return []Batch{{Collector: "downsample/flush", Time: m.latest, Samples: out}}
}

// TestDownsamplerMatchesModel drives the downsampler and the model with
// random streams — several series, gaps of many windows, late samples,
// several windows of one series in one batch, Close mid-window — and
// holds every forwarded batch to the model's.
func TestDownsamplerMatchesModel(t *testing.T) {
	labels, err := MakeLabels(map[string]string{"job": "lbm"})
	if err != nil {
		t.Fatal(err)
	}
	keys := []Key{
		{Source: "n2", Metric: "bw", Scope: ScopeNode},
		{Source: "n1", Metric: "bw", Scope: ScopeNode},
		{Source: "n1", Metric: "bw", Scope: ScopeSocket, ID: 1},
		{Source: "n1", Metric: "bw", Scope: ScopeSocket, ID: 1, Labels: labels},
		{Metric: "flops", Scope: ScopeThread, ID: 3},
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		every := []time.Duration{250 * time.Millisecond, time.Second, 2500 * time.Millisecond, 10 * time.Second}[rng.Intn(4)]
		capture := &captureSink{}
		d := NewDownsampler(every, capture)
		model := &downsampleModel{every: every.Seconds(), open: map[Key]*modelWindow{}}
		var want []Batch
		now := rng.Float64() * 100
		for b := rng.Intn(40); b > 0; b-- {
			batch := Batch{Collector: "fwd", Time: now}
			for n := rng.Intn(12); n > 0; n-- {
				tm := now + rng.Float64()*every.Seconds()
				switch rng.Intn(10) {
				case 0: // late: up to three windows back
					tm = now - rng.Float64()*3*every.Seconds()
				case 1: // a gap of several windows
					now += float64(1+rng.Intn(20)) * every.Seconds()
					tm = now
				}
				now = max(now, tm)
				k := keys[rng.Intn(len(keys))]
				batch.Samples = append(batch.Samples, Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope,
					ID: k.ID, Labels: k.Labels, Time: tm, Value: rng.NormFloat64()})
			}
			if err := d.Write(batch); err != nil {
				t.Fatal(err)
			}
			want = append(want, model.write(batch)...)
			now += rng.Float64() * every.Seconds()
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		want = append(want, model.close()...)
		if !reflect.DeepEqual(capture.batches, want) {
			t.Fatalf("seed %d, every %v:\n got %+v\nwant %+v", seed, every, capture.batches, want)
		}
		if !capture.closed {
			t.Fatalf("seed %d: the wrapped sink was not closed", seed)
		}
	}
}
