package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by a wrapper the
// benchmark owns (a wrapping Collector, Sink or RoundTripper, a
// SetForward hook, or a timed direct call).  Trace is the journey it
// belongs to — (agent, tick) or (client, query #) folded into one
// integer — and Parent names the span that caused it.
type span struct {
	Layer  string
	Name   string
	Node   string
	Trace  int64
	Parent string
	Start  time.Time
	Dur    time.Duration
}

// maxSpans bounds the in-memory trace; spans past it are counted, not
// kept, so a long run cannot grow without limit.
const maxSpans = 400_000

// tracer keeps spans in memory until the run ends.  A nil tracer is
// "tracing off": every method is a no-op, so the measured path of an
// untraced run pays one nil check.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int
	busy    map[string]time.Duration
}

func newTracer() *tracer {
	return &tracer{busy: map[string]time.Duration{}}
}

// add records one span.  Its duration does not count as busy time:
// callers account a layer's self time with addBusy, after subtracting
// the child spans they know about.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// addBusy credits self time to a layer.
func (t *tracer) addBusy(layer string, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.mu.Lock()
	t.busy[layer] += d
	t.mu.Unlock()
}

// busyShares is each layer's share of all accounted busy time.
func (t *tracer) busyShares() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var total time.Duration
	for _, d := range t.busy {
		total += d
	}
	if total <= 0 {
		return out
	}
	for l, d := range t.busy {
		out[l] = float64(d) / float64(total)
	}
	return out
}

// traceEvent is one record of the Chrome trace-event format ("X" =
// complete event; ts and dur in microseconds).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write dumps the spans as a trace-event JSON array: one process per
// node, one thread per layer, the trace id and parent in args.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := t.spans
	dropped := t.dropped
	t.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	t0 := spans[0].Start
	for _, s := range spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	pids := map[string]int{}
	tids := map[string]int{}
	for i, l := range layers {
		tids[l] = i + 1
	}
	events := make([]traceEvent, 0, len(spans)+16)
	for _, s := range spans {
		pid, ok := pids[s.Node]
		if !ok {
			pid = len(pids) + 1
			pids[s.Node] = pid
			events = append(events, traceEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": s.Node},
			})
		}
		args := map[string]any{"trace": s.Trace}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		events = append(events, traceEvent{
			Name: s.Layer + "." + s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Sub(t0)) / 1e3,
			Dur: float64(s.Dur) / 1e3,
			Pid: pid, Tid: tids[s.Layer], Args: args,
		})
	}
	if dropped > 0 {
		events = append(events, traceEvent{
			Name: "spans_dropped", Ph: "M", Pid: 0,
			Args: map[string]any{"count": dropped},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stages lists the distinct "layer.name" stages a trace holds, for the
// self-test's "a span for every stage named" check.
func (t *tracer) stages() map[string]int {
	out := map[string]int{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Layer+"."+s.Name]++
	}
	return out
}
