package alert

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"likwid/internal/monitor"
)

func testEvent() Event {
	return Event{
		Rule: "bw_low", State: EventStateFiring, Metric: "bw", Scope: "socket",
		ID: 1, Value: 1833.125, Threshold: 2000, Time: 63,
		Spec: "bw_low: avg(bw, socket, 30s) < 2000 for 1m0s",
	}
}

func TestLogNotifierFormat(t *testing.T) {
	var buf bytes.Buffer
	n := NewLogNotifier(&buf)
	if err := n.Write(testEvent()); err != nil {
		t.Fatal(err)
	}
	want := "alert firing bw_low bw socket/1 value=1833.125 threshold=2000 t=63.000\n"
	if buf.String() != want {
		t.Errorf("log line = %q, want %q", buf.String(), want)
	}
}

func TestJSONLNotifierRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	n := NewJSONLNotifier(&buf, nil)
	if err := n.Write(testEvent()); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	var got Event
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("jsonl line is not valid JSON: %v (%q)", err, buf.String())
	}
	if !reflect.DeepEqual(got, testEvent()) {
		t.Errorf("decoded = %+v, want %+v", got, testEvent())
	}
}

// TestWebhookNotifierRetries pins the retry/backoff discipline: a flaky
// endpoint is retried and the event eventually lands.
func TestWebhookNotifierRetries(t *testing.T) {
	var calls atomic.Int64
	var got Event
	srv, srvURL := serveTest(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Errorf("webhook body: %v", err)
		}
		w.WriteHeader(http.StatusNoContent)
	}))

	n, err := NewWebhookNotifier(WebhookOptions{URL: srvURL, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Write(testEvent()); err != nil {
		t.Fatalf("Notify failed despite retries: %v", err)
	}
	if calls.Load() != 3 || n.Retries() != 2 || n.Sent() != 1 {
		t.Errorf("calls=%d retries=%d sent=%d, want 3/2/1", calls.Load(), n.Retries(), n.Sent())
	}
	if got.Rule != "bw_low" || got.State != EventStateFiring {
		t.Errorf("delivered event = %+v", got)
	}

	// A permanently dead endpoint exhausts its attempts and errors.
	srv.Close()
	if err := n.Write(testEvent()); err == nil {
		t.Error("Notify to a dead endpoint succeeded, want error")
	}
}

// failingNotifier always errors, for the fanout error accounting.
type failingNotifier struct{}

func (failingNotifier) Name() string      { return "fail" }
func (failingNotifier) Write(Event) error { return errors.New("nope") }
func (failingNotifier) Close() error      { return nil }

func TestFanoutDeliveryAndCounts(t *testing.T) {
	cap := &captureNotifier{}
	f := NewFanout(4, cap, failingNotifier{})
	for i := 0; i < 3; i++ {
		if !f.Publish(testEvent()) {
			t.Fatalf("publish %d rejected", i)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(cap.snapshot()); got != 3 {
		t.Errorf("capture got %d events, want 3", got)
	}
	if f.Errors() != 3 {
		t.Errorf("errors = %d, want 3 (one per event from the failing notifier)", f.Errors())
	}
	if f.Written() != 0 {
		t.Errorf("delivered = %d, want 0 (every event had a failing notifier)", f.Written())
	}
	// Publishing after close drops and counts.
	if f.Publish(testEvent()) {
		t.Error("publish after close succeeded")
	}
	if f.Dropped() == 0 {
		t.Error("post-close publish not counted as dropped")
	}
}

func TestParseNotifierSpecs(t *testing.T) {
	dir := t.TempDir()
	good := []string{"stdout", "log", "jsonl:" + dir + "/events.jsonl", "webhook:http://localhost:1/hook"}
	for _, spec := range good {
		n, err := ParseNotifier(context.Background(), spec)
		if err != nil {
			t.Errorf("ParseNotifier(%q) failed: %v", spec, err)
			continue
		}
		_ = n.Close()
	}
	bad := map[string]string{
		"jsonl":           "file path",
		"webhook:ftp://x": "http(s) URL",
		"webhook:host":    "http(s) URL",
		"pagerduty:key":   "unknown notifier kind",
	}
	for spec, wantErr := range bad {
		if err := ValidateNotifierSpec(spec); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("ValidateNotifierSpec(%q) = %v, want %q", spec, err, wantErr)
		}
	}
}

// countingConsumer counts what its fanout hands it.
type countingConsumer[T any] struct{ n atomic.Uint64 }

func (c *countingConsumer[T]) Name() string  { return "count" }
func (c *countingConsumer[T]) Write(T) error { c.n.Add(1); return nil }
func (c *countingConsumer[T]) Close() error  { return nil }

// publishRacingClose publishes v from several goroutines while Close
// runs: no publish may panic, every accepted value must be written, and
// every other one counted as dropped.
func publishRacingClose[T any](t *testing.T, newFanout func(c monitor.Consumer[T]) *monitor.Fanout[T], v T) {
	for round := 0; round < 20; round++ {
		c := &countingConsumer[T]{}
		f := newFanout(c)
		const publishers, each = 4, 200
		var accepted atomic.Uint64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < each; i++ {
					if f.Publish(v) {
						accepted.Add(1)
					}
				}
			}()
		}
		close(start)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if !f.Closed() {
			t.Fatal("Closed() = false after Close")
		}
		if got, want := c.n.Load(), accepted.Load(); got != want || f.Written() != want {
			t.Fatalf("round %d: consumer saw %d, Written %d, accepted %d", round, got, f.Written(), want)
		}
		if got, want := f.Dropped(), publishers*each-accepted.Load(); got != want {
			t.Fatalf("round %d: Dropped = %d, want %d", round, got, want)
		}
	}
}

// TestFanoutPublishRacesClose runs the race for both element types the
// fanout carries: metric batches and alert events (run it with -race).
func TestFanoutPublishRacesClose(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		publishRacingClose(t, func(c monitor.Consumer[monitor.Batch]) *monitor.Dispatcher {
			return monitor.NewDispatcher(8, c)
		}, monitor.Batch{Collector: "c", Samples: []monitor.Sample{{Metric: "m"}}})
	})
	t.Run("event", func(t *testing.T) {
		publishRacingClose(t, func(c Notifier) *monitor.Fanout[Event] { return NewFanout(8, c) }, testEvent())
	})
}
