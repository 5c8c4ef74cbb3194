package alert

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// Notifier delivers one firing/resolved event.  Notifiers are driven by
// a single Fanout goroutine (the sink idiom), so implementations need no
// locking against each other; Close flushes and releases resources.
type Notifier interface {
	Name() string
	Notify(ev Event) error
	Close() error
}

// Fanout delivers events to notifiers asynchronously through a bounded
// channel.  Publish never blocks rule evaluation: when the queue is full
// the event is dropped and counted — a slow webhook costs notifications,
// never evaluation cadence.
type Fanout struct {
	// mu guards closed and the channel send against a concurrent Close,
	// exactly like the sink dispatcher: publishers hold it shared, Close
	// exclusively, so the channel is never closed mid-send.
	mu        sync.RWMutex
	closed    bool
	ch        chan Event
	notifiers []Notifier
	delivered atomic.Uint64
	dropped   atomic.Uint64
	errs      atomic.Uint64
	done      chan struct{}
	once      sync.Once

	logger atomic.Pointer[slog.Logger]
}

// NewFanout starts the delivery goroutine; buffer is the bounded queue
// depth (default 64 when <= 0).
func NewFanout(buffer int, notifiers ...Notifier) *Fanout {
	if buffer <= 0 {
		buffer = 64
	}
	f := &Fanout{
		ch:        make(chan Event, buffer),
		notifiers: notifiers,
		done:      make(chan struct{}),
	}
	go f.loop()
	return f
}

func (f *Fanout) loop() {
	defer close(f.done)
	for ev := range f.ch {
		ok := true
		for _, n := range f.notifiers {
			if err := n.Notify(ev); err != nil {
				f.errs.Add(1)
				ok = false
				if log := f.logger.Load(); log != nil {
					log.Warn("notifier delivery failed",
						"notifier", n.Name(), "rule", ev.Rule, "state", ev.State, "err", err)
				}
			}
		}
		if ok {
			f.delivered.Add(1)
		}
	}
}

// Publish enqueues an event without blocking; it reports false (and
// counts the drop) when the queue is full or the fanout is closed.
func (f *Fanout) Publish(ev Event) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		f.countDrop()
		return false
	}
	select {
	case f.ch <- ev:
		return true
	default:
		f.countDrop()
		return false
	}
}

// countDrop counts one dropped event, warning only on the first — the
// dispatcher's rate-limiting discipline: the counter carries the rate,
// the log carries the fact.
func (f *Fanout) countDrop() {
	if f.dropped.Add(1) == 1 {
		if log := f.logger.Load(); log != nil {
			log.Warn("notifier queue full, dropping events (counted, further drops not logged)",
				"capacity", cap(f.ch))
		}
	}
}

// SetLogger routes drop and delivery-failure warnings; nil (the
// default) keeps the fanout silent, counters only.
func (f *Fanout) SetLogger(log *slog.Logger) { f.logger.Store(log) }

// Instrument registers the fanout's self-metrics on reg.
func (f *Fanout) Instrument(reg *telemetry.Registry) {
	reg.GaugeFunc("likwid_notifier_queue_depth", func() float64 { return float64(len(f.ch)) })
	reg.GaugeFunc("likwid_notifier_queue_capacity", func() float64 { return float64(cap(f.ch)) })
	reg.CounterFunc("likwid_notifier_delivered_total", func() float64 { return float64(f.delivered.Load()) })
	reg.CounterFunc("likwid_notifier_dropped_total", func() float64 { return float64(f.dropped.Load()) })
	reg.CounterFunc("likwid_notifier_errors_total", func() float64 { return float64(f.errs.Load()) })
}

// Delivered counts events delivered to every notifier without error.
func (f *Fanout) Delivered() uint64 { return f.delivered.Load() }

// Dropped counts events rejected by the overflow policy.
func (f *Fanout) Dropped() uint64 { return f.dropped.Load() }

// Errors counts individual notifier failures.
func (f *Fanout) Errors() uint64 { return f.errs.Load() }

// Closed reports whether the fanout has been shut down — the "notifiers
// up" half of a readiness probe.
func (f *Fanout) Closed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// Close drains the queue, closes every notifier, and returns the first
// notifier close error.
func (f *Fanout) Close() error {
	var err error
	f.once.Do(func() {
		f.mu.Lock()
		f.closed = true
		close(f.ch)
		f.mu.Unlock()
		<-f.done
		for _, n := range f.notifiers {
			if cerr := n.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// ---- log notifier ---------------------------------------------------------

// logNotifier writes one human-readable line per event.
type logNotifier struct {
	w io.Writer
}

// NewLogNotifier writes one line per transition to w, e.g.
//
//	alert firing mem_bw_low memory_bandwidth_mbytes_s socket/0 value=1833.1 threshold=2000 t=63.0
//
// Fleet events carry their agent as a source=NAME field after the
// metric, and labelled events their label set as labels{k=v,k=v}.
func NewLogNotifier(w io.Writer) Notifier { return &logNotifier{w: w} }

func (l *logNotifier) Name() string { return "log" }

func (l *logNotifier) Notify(ev Event) error {
	source := ""
	if ev.Source != "" {
		source = " source=" + ev.Source
	}
	labels := ""
	if len(ev.Labels) > 0 {
		labels = " labels{" + monitor.FormatLabelMap(ev.Labels) + "}"
	}
	grouped := ""
	if len(ev.Instances) > 0 {
		grouped = fmt.Sprintf(" instances=%d", len(ev.Instances))
	}
	_, err := fmt.Fprintf(l.w, "alert %s %s %s%s%s %s/%d value=%g threshold=%g t=%.3f%s\n",
		ev.State, ev.Rule, ev.Metric, source, labels, ev.Scope, ev.ID, ev.Value, ev.Threshold, ev.Time, grouped)
	return err
}

func (l *logNotifier) Close() error { return nil }

// ---- JSON-lines notifier --------------------------------------------------

type jsonlNotifier struct {
	w *bufio.Writer
	c io.Closer
}

// NewJSONLNotifier writes one JSON event per line to w, closing c (which
// may be nil) on Close — the audit-trail twin of the jsonl metric sink.
func NewJSONLNotifier(w io.Writer, c io.Closer) Notifier {
	return &jsonlNotifier{w: bufio.NewWriter(w), c: c}
}

func (n *jsonlNotifier) Name() string { return "jsonl" }

func (n *jsonlNotifier) Notify(ev Event) error {
	if err := json.NewEncoder(n.w).Encode(ev); err != nil {
		return err
	}
	return n.w.Flush()
}

func (n *jsonlNotifier) Close() error {
	if err := n.w.Flush(); err != nil {
		return err
	}
	if n.c != nil {
		return n.c.Close()
	}
	return nil
}

// ---- webhook notifier -----------------------------------------------------

// WebhookOptions configure a webhook notifier.  Zero values take the
// defaults noted per field (the push sink's retry discipline).
type WebhookOptions struct {
	// URL receives one POST per event with a JSON Event body.  Required.
	URL string
	// MaxAttempts is the number of POST tries per event (default 3).
	MaxAttempts int
	// RetryBase is the first retry backoff, doubling per attempt
	// (default 100 ms).
	RetryBase time.Duration
	// Context bounds the retry backoff: when it is cancelled (agent
	// shutdown), delivery stops sleeping between attempts, so draining
	// the fanout against a dead endpoint cannot stall shutdown for the
	// whole backoff ladder.  Nil means never cancelled.
	Context context.Context
	// Client defaults to an http.Client with a 10 s timeout.
	Client *http.Client
	// Logger receives delivery-failure warnings; nil stays silent.
	Logger *slog.Logger
}

func (o WebhookOptions) withDefaults() WebhookOptions {
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 10 * time.Second}
	}
	return o
}

// WebhookNotifier POSTs each event as JSON with bounded retry/backoff.
// It runs on the fanout goroutine, so a dead endpoint delays other
// notifiers at most MaxAttempts backoffs per event; rule evaluation is
// protected by the fanout's drop-and-count queue.
type WebhookNotifier struct {
	opts    WebhookOptions
	sent    atomic.Uint64
	retries atomic.Uint64
}

// NewWebhookNotifier creates a webhook notifier; it does not contact the
// endpoint until the first event.
func NewWebhookNotifier(opts WebhookOptions) (*WebhookNotifier, error) {
	if strings.TrimSpace(opts.URL) == "" {
		return nil, fmt.Errorf("alert: webhook notifier needs a URL")
	}
	return &WebhookNotifier{opts: opts.withDefaults()}, nil
}

// Name implements Notifier.
func (n *WebhookNotifier) Name() string { return "webhook" }

// Sent counts events acknowledged by the endpoint.
func (n *WebhookNotifier) Sent() uint64 { return n.sent.Load() }

// Retries counts failed POST attempts.
func (n *WebhookNotifier) Retries() uint64 { return n.retries.Load() }

// SetLogger routes delivery-failure warnings; nil (the default) stays
// silent.  Wiring time only: call it before the notifier is handed to a
// fanout.
func (n *WebhookNotifier) SetLogger(log *slog.Logger) { n.opts.Logger = log }

// Notify POSTs the event, retrying with the push sink's bounded
// exponential backoff.
func (n *WebhookNotifier) Notify(ev Event) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	err = monitor.RetryWithBackoff(n.opts.Context, n.opts.MaxAttempts, n.opts.RetryBase,
		func() { n.retries.Add(1) },
		func() error { return n.post(payload) })
	if err != nil {
		if n.opts.Logger != nil {
			n.opts.Logger.Warn("webhook delivery failed",
				"url", n.opts.URL, "rule", ev.Rule, "attempts", n.opts.MaxAttempts, "err", err)
		}
		return fmt.Errorf("alert: webhook %s failed after %d attempts: %w",
			n.opts.URL, n.opts.MaxAttempts, err)
	}
	n.sent.Add(1)
	return nil
}

func (n *WebhookNotifier) post(payload []byte) error {
	resp, err := n.opts.Client.Post(n.opts.URL, "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer monitor.DrainAndClose(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("endpoint returned %s", resp.Status)
	}
	return nil
}

// Close implements Notifier.
func (n *WebhookNotifier) Close() error { return nil }

// ---- notifier spec parsing ------------------------------------------------

// ParseNotifier builds a notifier from an agent -notify specification:
//
//	stdout               one human-readable line per transition on stdout
//	jsonl:PATH           JSON-lines event log
//	webhook:URL          POST each event as JSON (http:// or https://)
//
// The context bounds the webhook notifier's retry backoff (the agent's
// shutdown path); nil means never cancelled.
func ParseNotifier(ctx context.Context, spec string) (Notifier, error) {
	if err := ValidateNotifierSpec(spec); err != nil {
		return nil, err
	}
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "stdout", "log":
		return NewLogNotifier(os.Stdout), nil
	case "jsonl":
		f, err := os.Create(arg)
		if err != nil {
			return nil, fmt.Errorf("alert: notifier %q: %w", spec, err)
		}
		return NewJSONLNotifier(f, f), nil
	default: // "webhook", already validated
		return NewWebhookNotifier(WebhookOptions{URL: arg, Context: ctx})
	}
}

// ValidateNotifierSpec checks a -notify specification's shape without
// side effects, so agent configuration fails fast.  ParseNotifier runs
// it first, keeping the two in lockstep.
func ValidateNotifierSpec(spec string) error {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "stdout", "log":
		return nil
	case "jsonl":
		if arg == "" {
			return fmt.Errorf("alert: notifier %q needs a file path (jsonl:PATH)", spec)
		}
		return nil
	case "webhook":
		if !strings.HasPrefix(arg, "http://") && !strings.HasPrefix(arg, "https://") {
			return fmt.Errorf("alert: notifier %q needs an http(s) URL (webhook:http://host/path)", spec)
		}
		return nil
	default:
		return fmt.Errorf("alert: unknown notifier kind %q (stdout, jsonl:PATH, webhook:URL)", spec)
	}
}
