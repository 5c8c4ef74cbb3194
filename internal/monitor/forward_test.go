package monitor

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingJournal counts journaled points — the double-journal detector.
type countingJournal struct{ records atomic.Uint64 }

func (j *countingJournal) Record(Key, Point)            { j.records.Add(1) }
func (j *countingJournal) RecordBatch(samples []Sample) { j.records.Add(uint64(len(samples))) }

// TestForwardHookSingleJournal pins the federation-hop persistence
// invariant: a receiver with a forward hook journals each accepted
// sample exactly once (at ingest), and the hook sees the same samples —
// already source-resolved — without appending anything a second time.
func TestForwardHookSingleJournal(t *testing.T) {
	store := NewStore(64)
	journal := &countingJournal{}
	store.SetJournal(journal)
	h, err := NewHTTPSink("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()

	var mu sync.Mutex
	var forwarded []Sample
	h.SetForward(func(b Batch) {
		mu.Lock()
		forwarded = append(forwarded, b.Samples...)
		mu.Unlock()
	})

	push, err := NewPushSink(PushOptions{
		URL:          "http://" + h.Addr() + "/ingest",
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
		Source:       "node7",
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	for i := 0; i < n; i++ {
		tm := float64(i)
		if err := push.Write(Batch{Collector: "perfgroup", Time: tm, Samples: []Sample{
			{Metric: "bw", Scope: ScopeNode, ID: 0, Time: tm, Value: tm},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := push.Close(); err != nil {
		t.Fatal(err)
	}

	// The hook runs inside the ingest handler, before the POST is acked,
	// so by now every sample has been both journaled and forwarded.
	if got := journal.records.Load(); got != n {
		t.Errorf("journal recorded %d appends, want exactly %d (forwarding must not double-journal)", got, n)
	}
	mu.Lock()
	if len(forwarded) != n {
		t.Fatalf("forward hook saw %d samples, want %d", len(forwarded), n)
	}
	for _, sm := range forwarded {
		if sm.Source != "node7" {
			t.Fatalf("forwarded sample source = %q, want the resolved agent identity", sm.Source)
		}
	}
	mu.Unlock()

	// SetForward(nil) disarms the hook.
	h.SetForward(nil)
	if err := pushOne(t, h.Addr()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(forwarded) != n {
		t.Errorf("disarmed hook still received samples (%d > %d)", len(forwarded), n)
	}
}

// pushOne ships a single sample to a receiver.
func pushOne(t *testing.T, addr string) error {
	t.Helper()
	p, err := NewPushSink(PushOptions{
		URL: "http://" + addr + "/ingest", FlushSamples: 1, RetryBase: time.Millisecond,
	})
	if err != nil {
		return err
	}
	if err := p.Write(Batch{Collector: "x", Time: 99, Samples: []Sample{
		{Metric: "bw", Scope: ScopeNode, Time: 99, Value: 1},
	}}); err != nil {
		return err
	}
	return p.Close()
}

// TestDedupePoints pins the HA-pair query semantics: same-timestamp
// runs collapse to their last point (latest write wins, as /metrics
// picks a series' point), distinct timestamps survive untouched.
func TestDedupePoints(t *testing.T) {
	cases := []struct {
		name string
		in   []Point
		want []Point
	}{
		{name: "empty", in: nil, want: nil},
		{name: "no dupes", in: []Point{{1, 10}, {2, 20}}, want: []Point{{1, 10}, {2, 20}}},
		{
			name: "mirrored pair",
			in:   []Point{{1, 10}, {1, 10}, {2, 20}, {2, 20}},
			want: []Point{{1, 10}, {2, 20}},
		},
		{
			name: "last of a run wins",
			in:   []Point{{1, 10}, {1, 11}, {1, 12}, {3, 30}},
			want: []Point{{1, 12}, {3, 30}},
		},
		{name: "all one timestamp", in: []Point{{5, 1}, {5, 2}, {5, 3}}, want: []Point{{5, 3}}},
	}
	for _, c := range cases {
		got := dedupePoints(append([]Point(nil), c.in...))
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: point %d = %v, want %v", c.name, i, got[i], c.want[i])
			}
		}
	}
}

// TestPushSinkTakePending pins the failover building block: pending
// wire records decode back into identical samples (resolved source,
// scope, labels intact) and leave the buffer empty.
func TestPushSinkTakePending(t *testing.T) {
	p, err := NewPushSink(PushOptions{
		URL:          "http://127.0.0.1:1/ingest", // never contacted
		FlushSamples: 1000,
		Source:       "nodeX",
	})
	if err != nil {
		t.Fatal(err)
	}
	ls, err := MakeLabels(map[string]string{"job": "lbm"})
	if err != nil {
		t.Fatal(err)
	}
	p.Buffer(Batch{Collector: "perfgroup", Time: 1, Samples: []Sample{
		{Metric: "bw", Scope: ScopeSocket, ID: 1, Labels: ls, Time: 1, Value: 42},
		{Source: "other", Metric: "bw", Scope: ScopeNode, ID: 0, Time: 2, Value: 43},
	}})
	got := p.TakePending()
	if len(got) != 2 || p.Pending() != 0 {
		t.Fatalf("TakePending returned %d samples, %d left; want 2 and 0", len(got), p.Pending())
	}
	if got[0].Source != "nodeX" || got[0].Scope != ScopeSocket || got[0].ID != 1 ||
		got[0].Labels.String() != "job=lbm" || got[0].Value != 42 {
		t.Errorf("decoded sample 0 = %+v, want the original with resolved source", got[0])
	}
	if got[1].Source != "other" {
		t.Errorf("sample with its own source came back as %q, want other", got[1].Source)
	}
	if p.TakePending() != nil {
		t.Error("TakePending on an empty buffer returned samples")
	}
}
