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
	"sync/atomic"
	"time"

	"likwid/internal/monitor"
)

// Notifier delivers one firing/resolved event.  Notifiers are the
// consumers of the notifier fanout, driven by its single goroutine, so
// implementations need no locking against each other; Close flushes and
// releases resources.
type Notifier = monitor.Consumer[Event]

// NewFanout starts the notifier fan-out: the sink dispatcher's bounded
// drop-and-count queue, carrying events, so a slow webhook costs
// notifications, never evaluation cadence.  buffer is the queue depth
// (default 64 when <= 0).
func NewFanout(buffer int, notifiers ...Notifier) *monitor.Fanout[Event] {
	return monitor.NewFanout("notifier", buffer, func(ev Event) []any { return []any{"rule", ev.Rule, "state", ev.State} }, notifiers...)
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

func (l *logNotifier) Write(ev Event) error {
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

func (n *jsonlNotifier) Write(ev Event) error {
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
	// RetryBase is the first retry backoff, doubling per attempt
	// (default 100 ms).
	RetryBase time.Duration
	// Context bounds the retry backoff: when it is cancelled (agent
	// shutdown), delivery stops sleeping between attempts, so draining
	// the fanout against a dead endpoint cannot stall shutdown for the
	// whole backoff ladder.  Nil means never cancelled.
	Context context.Context
}

// webhookAttempts is the POST tries per event and webhookClient bounds
// each try: the push sink's defaults.
const webhookAttempts = 3

var webhookClient = &http.Client{Timeout: 10 * time.Second}

// WebhookNotifier POSTs each event as JSON with bounded retry/backoff.
// It runs on the fanout goroutine, so a dead endpoint delays other
// notifiers at most webhookAttempts backoffs per event; rule evaluation
// is protected by the fanout's drop-and-count queue.
type WebhookNotifier struct {
	opts    WebhookOptions
	log     *slog.Logger
	sent    atomic.Uint64
	retries atomic.Uint64
}

// NewWebhookNotifier creates a webhook notifier; it does not contact the
// endpoint until the first event.
func NewWebhookNotifier(opts WebhookOptions) (*WebhookNotifier, error) {
	if strings.TrimSpace(opts.URL) == "" {
		return nil, fmt.Errorf("alert: webhook notifier needs a URL")
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 100 * time.Millisecond
	}
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	return &WebhookNotifier{opts: opts}, nil
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
func (n *WebhookNotifier) SetLogger(log *slog.Logger) { n.log = log }

// Write POSTs the event, retrying with the push sink's bounded
// exponential backoff.
func (n *WebhookNotifier) Write(ev Event) error {
	payload, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	err = monitor.RetryWithBackoff(n.opts.Context, webhookAttempts, n.opts.RetryBase,
		func() { n.retries.Add(1) },
		func() error { return n.post(payload) })
	if err != nil {
		if n.log != nil {
			n.log.Warn("webhook delivery failed",
				"url", n.opts.URL, "rule", ev.Rule, "attempts", webhookAttempts, "err", err)
		}
		return fmt.Errorf("alert: webhook %s failed after %d attempts: %w",
			n.opts.URL, webhookAttempts, err)
	}
	n.sent.Add(1)
	return nil
}

func (n *WebhookNotifier) post(payload []byte) error {
	resp, err := webhookClient.Post(n.opts.URL, "application/json", bytes.NewReader(payload))
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
