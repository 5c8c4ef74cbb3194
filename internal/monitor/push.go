package monitor

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"likwid/internal/telemetry"
)

// PushOptions configure a push sink.  Zero values take the defaults
// noted per field.
type PushOptions struct {
	// URL is the receiver's ingest endpoint
	// (e.g. http://collector:8090/ingest).  Required.
	URL string
	// FlushSamples triggers a POST once this many samples are pending
	// (default 64).  Close always flushes the remainder.
	FlushSamples int
	// MaxBuffered bounds the pending samples kept across failed pushes
	// (default 4096); beyond it the oldest are dropped and counted, so a
	// dead receiver costs history, never memory.
	MaxBuffered int
	// MaxAttempts is the number of POST tries per flush (default 3).
	MaxAttempts int
	// RetryBase is the first retry backoff, doubling per attempt
	// (default 100 ms).
	RetryBase time.Duration
	// Source identifies this agent at the receiver: when set, it is
	// carried as the per-sample "source" field of the v2 wire schema and
	// lands in Key.Source at the receiver, so several agents pushing the
	// same group do not collapse into one series.  Samples that already
	// carry their own Source (a receiver re-pushing a fleet store) keep
	// it; this option only labels sourceless samples.  Empty means
	// unlabelled (single-agent setups).
	Source string
	// Context bounds the retry backoff: when it is cancelled (agent
	// shutdown), an in-flight flush stops sleeping between attempts, so
	// Close against a dead receiver returns promptly instead of walking
	// the whole backoff ladder.  Nil means never cancelled.
	Context context.Context
	// Client defaults to an http.Client with a 10 s timeout.
	Client *http.Client
	// Now supplies the wall clock for the sent_at stamp on each buffered
	// record (default time.Now).  Tests pin it; returning the zero time
	// (or time.Unix(0, 0)) disables stamping entirely, keeping the wire
	// bytes identical to the pre-sent_at format.
	Now func() time.Time
	// Logger receives flush-failure and drop warnings; nil stays silent
	// (counters only).
	Logger *slog.Logger
	// Format selects the wire encoding: WireJSON (the default) is the
	// v1–v3 gzipped JSON-lines schema, WireV4 the binary columnar batch
	// format.  v4 needs a receiver that decodes the same v4 layout (its
	// magic) — upgrade receivers before, or together with, agents; a
	// payload a receiver cannot decode is 400'd and stays buffered.
	Format WireFormat
}

// WireFormat selects a push sink's batch encoding.
type WireFormat int

const (
	// WireJSON is the self-describing v1–v3 JSON-lines schema, gzipped.
	WireJSON WireFormat = iota
	// WireV4 is the binary columnar batch format: a per-payload string
	// and label-set dictionary, a series directory, and batch-wide
	// delta-of-delta timestamp and Gorilla XOR value columns.
	WireV4
)

func (o PushOptions) withDefaults() PushOptions {
	if o.FlushSamples <= 0 {
		o.FlushSamples = 64
	}
	if o.MaxBuffered <= 0 {
		o.MaxBuffered = 4096
	}
	if o.MaxBuffered < o.FlushSamples {
		o.MaxBuffered = o.FlushSamples
	}
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
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// PushSink ships batches to a remote receiver — the distributed half of
// the monitoring stack (Röhl et al., arXiv:1708.01476): every node agent
// pushes, one receiver aggregates.  Samples are buffered as they are
// (source resolved, sent_at and collector alongside), encoded at flush
// time — gzipped JSON lines or the v4 binary columnar batch — and POSTed
// to the receiver's /ingest with bounded retry and bounded buffering.
// Like every sink it runs on the dispatcher goroutine, so a slow
// receiver delays other sinks at most MaxAttempts backoffs per flush;
// the sampling path itself is protected by the dispatcher's
// drop-and-count queue.
type PushSink struct {
	opts    PushOptions
	pending []Sample     // Source already resolved to the wire identity
	meta    []sampleMeta // index-aligned with pending
	enc     V4Encoder    // grouping scratch, reused across flushes
	lastLen int          // size of the previous flush's body: the next one's capacity hint
	lines   []byte       // JSON-lines scratch, reused: only its gzipped copy ships
	zw      *gzip.Writer // the JSON wire's compressor, Reset onto each flush's body

	sent      atomic.Uint64 // samples acknowledged by the receiver
	pushes    atomic.Uint64 // successful POSTs
	dropped   atomic.Uint64 // samples evicted from the pending buffer
	nonFinite atomic.Uint64 // samples refused at enqueue: NaN or ±Inf time or value
	negTime   atomic.Uint64 // samples refused at enqueue: negative time
	negID     atomic.Uint64 // samples refused at enqueue: negative id
	retries   atomic.Uint64 // failed POST attempts

	// Telemetry instruments, resolved once by Instrument (nil until
	// then; hot paths nil-check).  Instrument must run before the sink
	// is handed to a dispatcher — wiring time, like everything else.
	tBatch   *telemetry.Histogram // samples per Write
	tBytes   map[string]*telemetry.Counter
	tPost    *telemetry.Histogram // POST round-trip seconds, per attempt
	tPending *telemetry.Gauge     // pending-buffer occupancy
}

// NewPushSink creates a push sink; it does not contact the receiver
// until the first flush, so agents come up even when the collector is
// still down.
func NewPushSink(opts PushOptions) (*PushSink, error) {
	if strings.TrimSpace(opts.URL) == "" {
		return nil, fmt.Errorf("monitor: push sink needs a receiver URL")
	}
	return &PushSink{opts: opts.withDefaults()}, nil
}

// Name implements Sink.
func (p *PushSink) Name() string { return "push" }

// Sent counts samples acknowledged by the receiver.
func (p *PushSink) Sent() uint64 { return p.sent.Load() }

// Pushes counts successful POSTs.
func (p *PushSink) Pushes() uint64 { return p.pushes.Load() }

// Dropped counts samples evicted from the pending buffer while the
// receiver was unreachable.
func (p *PushSink) Dropped() uint64 { return p.dropped.Load() }

// Retries counts failed POST attempts.
func (p *PushSink) Retries() uint64 { return p.retries.Load() }

// SetLogger routes flush-failure and drop warnings; nil (the default)
// stays silent.  Wiring time only: call it before the sink is handed to
// a dispatcher, like Instrument.
func (p *PushSink) SetLogger(log *slog.Logger) { p.opts.Logger = log }

// Instrument registers the push sink's self-metrics on reg.  Call it at
// wiring time, before the sink receives its first Write.
func (p *PushSink) Instrument(reg *telemetry.Registry) {
	reg.CounterFunc("likwid_push_sent_total", func() float64 { return float64(p.sent.Load()) })
	reg.CounterFunc("likwid_push_pushes_total", func() float64 { return float64(p.pushes.Load()) })
	reg.CounterFunc("likwid_push_dropped_total", func() float64 { return float64(p.dropped.Load()) })
	p.InstrumentRefused(reg, "likwid_push_dropped_total")
	reg.CounterFunc("likwid_push_retries_total", func() float64 { return float64(p.retries.Load()) })
	p.tBatch = reg.Histogram("likwid_push_batch_samples", telemetry.SizeBuckets)
	p.tBytes = map[string]*telemetry.Counter{
		"raw":  reg.Counter("likwid_push_bytes_total", "stage", "raw"),
		"gzip": reg.Counter("likwid_push_bytes_total", "stage", "gzip"),
	}
	p.tPost = reg.Histogram("likwid_push_post_seconds", telemetry.DurationBuckets)
	p.tPending = reg.Gauge("likwid_push_pending")
	p.InstrumentEncoder(reg)
}

// InstrumentEncoder counts the v4 encoder's shape cache hits, misses and
// resets on reg, under likwid_v4_shape_cache_total{cache="push"} (the
// cluster sink exports its targets' through it).
func (p *PushSink) InstrumentEncoder(reg *telemetry.Registry) { p.enc.Instrument(reg, "push") }

// InstrumentRefused registers one counter of name per reason enqueue
// refuses a sample for (reason="non_finite", "negative_time",
// "negative_id"), under the extra labels kv.  The cluster sink exports
// each target's refusals through it.
func (p *PushSink) InstrumentRefused(reg *telemetry.Registry, name string, kv ...string) {
	for _, r := range []struct {
		reason string
		n      *atomic.Uint64
	}{{"non_finite", &p.nonFinite}, {"negative_time", &p.negTime}, {"negative_id", &p.negID}} {
		reg.CounterFunc(name, func() float64 { return float64(r.n.Load()) }, slices.Concat(kv, []string{"reason", r.reason})...)
	}
}

// sentAtStamp converts the wall clock to the wire's sent_at Unix
// seconds.  The zero time and the epoch both yield 0 — omitempty drops
// the field, so test clocks pinned at time.Unix(0, 0) reproduce the
// pre-sent_at wire bytes exactly.
func sentAtStamp(now time.Time) float64 {
	if now.IsZero() {
		return 0
	}
	return float64(now.UnixNano()) / 1e9
}

// Write buffers the batch and flushes once FlushSamples are pending.  A
// flush that exhausts its attempts returns the error but keeps the
// samples buffered for the next flush, oldest dropped (and counted)
// beyond MaxBuffered.  Only a failed flush trims: below the threshold
// the buffer is under MaxBuffered by construction, and a successful
// flush ships everything, however far one batch overshot the bound.
func (p *PushSink) Write(b Batch) error {
	p.enqueue(b)
	if len(p.pending) < p.opts.FlushSamples {
		return nil
	}
	err := p.flush()
	if err != nil {
		p.trim()
	}
	return err
}

// Buffer enqueues the batch without attempting a flush — Write minus the
// POST.  The cluster layer uses it to keep feeding a target that is known
// to be down (mirror mode): samples accumulate in the bounded pending
// buffer (oldest dropped and counted past MaxBuffered) and ship when the
// target recovers, without paying a doomed POST per batch meanwhile.
func (p *PushSink) Buffer(b Batch) {
	p.enqueue(b)
	p.trim()
}

// enqueue appends the batch to the pending buffer, unbounded.  A sample
// no receiver takes is dropped and counted by reason instead, because
// buffering it would fail every flush until trim aged it out: a NaN or
// ±Inf time or value (JSON has no spelling for it, a v4 receiver 400s
// the whole POST), a negative time (both receivers 400 the POST) and a
// negative id (the v4 encoder refuses the batch).
func (p *PushSink) enqueue(b Batch) {
	if p.tBatch != nil {
		p.tBatch.Observe(float64(len(b.Samples)))
	}
	// sent_at is stamped at enqueue time, not POST time: the receiver's
	// wire-latency histogram then covers the pending-buffer wait too, so
	// a backed-up push sink is visible end to end, not just its last hop.
	m := sampleMeta{collector: b.Collector, sentAt: sentAtStamp(p.opts.Now())}
	for _, sm := range b.Samples {
		var drop *atomic.Uint64
		switch {
		case !finite(sm.Time) || !finite(sm.Value):
			drop = &p.nonFinite
		case sm.Time < 0:
			drop = &p.negTime
		case sm.ID < 0:
			drop = &p.negID
		}
		if drop != nil {
			if drop.Add(1) == 1 && p.opts.Logger != nil {
				p.opts.Logger.Warn("push sink dropping unsendable samples (counted, further drops not logged)",
					"url", p.opts.URL, "metric", sm.Metric, "time", sm.Time, "id", sm.ID)
			}
			continue
		}
		sm.Source = WireSource(sm.Source, p.opts.Source)
		p.pending = append(p.pending, sm)
		p.meta = append(p.meta, m)
	}
	if p.tPending != nil {
		p.tPending.Set(float64(len(p.pending)))
	}
}

// WireSource is the source a sample carries on the wire from an agent
// whose push identity is push: a sourceless sample takes the identity,
// and so does a self-telemetry one ("self/..." locally), so two agents'
// self series stay distinct at the receiver, exactly like their hardware
// series.  Any other source is kept.  The push sink stamps it and the
// cluster sink shards by it, so a shard owns exactly the keys its
// receiver stores.
func WireSource(source, push string) string {
	if source == "" || source == SelfSource && push != "" {
		return push
	}
	return source
}

// trim enforces MaxBuffered, dropping (and counting) the oldest samples.
func (p *PushSink) trim() {
	over := len(p.pending) - p.opts.MaxBuffered
	if over <= 0 {
		return
	}
	p.discard(over)
	if p.dropped.Add(uint64(over)) == uint64(over) && p.opts.Logger != nil {
		p.opts.Logger.Warn("push buffer full, dropping oldest samples (counted, further drops not logged)",
			"url", p.opts.URL, "max_buffered", p.opts.MaxBuffered)
	}
}

// discard removes the n oldest pending samples, keeping the buffer.
func (p *PushSink) discard(n int) {
	p.pending = append(p.pending[:0], p.pending[n:]...)
	p.meta = append(p.meta[:0], p.meta[n:]...)
	if p.tPending != nil {
		p.tPending.Set(float64(len(p.pending)))
	}
}

// Pending reports the samples buffered and not yet acknowledged by the
// receiver.
func (p *PushSink) Pending() int { return len(p.pending) }

// Flush pushes the pending buffer now, regardless of the FlushSamples
// threshold; a no-op when nothing is pending.  On failure the samples
// stay buffered, exactly like a threshold-triggered flush — the cluster
// drain path then decides whether to reroute them (TakePending) or give
// them up (Close).
func (p *PushSink) Flush() error {
	if len(p.pending) == 0 {
		return nil
	}
	return p.flush()
}

// TakePending removes and returns the buffered samples — the failover
// path: the cluster sink re-routes a down target's stranded samples to a
// healthy one.  The source resolved at Buffer time is kept, so they land
// on identical keys through another target's sink.  Like Write, it must
// only be called from the sink's driving goroutine.
func (p *PushSink) TakePending() []Sample {
	if len(p.pending) == 0 {
		return nil
	}
	out := append([]Sample(nil), p.pending...)
	p.discard(len(out))
	return out
}

// Close flushes the remainder and reports the last push error.  Unlike a
// mid-run flush failure (which keeps the samples buffered for the next
// attempt), there is no next attempt after Close: samples still pending
// when the final flush fails are abandoned, so they are counted as drops
// and warned about once — fleet self-series then show the loss instead
// of silently under-reporting.
func (p *PushSink) Close() error {
	if len(p.pending) == 0 {
		return nil
	}
	err := p.flush()
	if n := len(p.pending); err != nil && n > 0 {
		p.discard(n)
		p.dropped.Add(uint64(n))
		if p.opts.Logger != nil {
			p.opts.Logger.Warn("push sink closed with unflushed samples, dropping them",
				"url", p.opts.URL, "dropped", n, "err", err)
		}
	}
	return err
}

// encodePending renders the pending samples as JSON lines into the
// sink's reused scratch: one object per sample, the same record shape
// the jsonl file sink writes.
func (p *PushSink) encodePending() ([]byte, error) {
	p.lines = p.lines[:0]
	for i, sm := range p.pending {
		var err error
		if p.lines, err = appendJSONLine(p.lines, sm, p.meta[i].collector, p.meta[i].sentAt); err != nil {
			return nil, err
		}
	}
	return p.lines, nil
}

func (p *PushSink) flush() error {
	var (
		wire        []byte
		contentType string
		encoding    string
	)
	// Each body is a buffer of its own (the transport may still be
	// reading the last one after Do returns), sized from the previous
	// flush.
	out := make([]byte, 0, p.lastLen+p.lastLen/8+64)
	if p.opts.Format == WireV4 {
		// The binary columnar format is already compact; it ships
		// identity-encoded under its own Content-Type.
		payload, err := p.enc.encode(out, p.pending, p.meta)
		if err != nil {
			return err
		}
		wire, contentType = payload, V4ContentType
		if p.tBytes != nil {
			p.tBytes["raw"].Add(uint64(len(payload)))
		}
	} else {
		payload, err := p.encodePending()
		if err != nil {
			return err
		}
		// The compressor and its window are kept across flushes.
		body := bytes.NewBuffer(out)
		if p.zw == nil {
			p.zw = gzip.NewWriter(body)
		} else {
			p.zw.Reset(body)
		}
		if _, err := p.zw.Write(payload); err != nil {
			return err
		}
		if err := p.zw.Close(); err != nil {
			return err
		}
		wire, contentType, encoding = body.Bytes(), "application/x-ndjson", "gzip"
		if p.tBytes != nil {
			p.tBytes["raw"].Add(uint64(len(payload)))
			p.tBytes["gzip"].Add(uint64(body.Len()))
		}
	}
	p.lastLen = len(wire)

	err := RetryWithBackoff(p.opts.Context, p.opts.MaxAttempts, p.opts.RetryBase,
		func() { p.retries.Add(1) },
		func() error {
			if p.tPost == nil {
				return p.post(wire, contentType, encoding)
			}
			start := time.Now()
			perr := p.post(wire, contentType, encoding)
			p.tPost.Observe(time.Since(start).Seconds())
			return perr
		})
	if err != nil {
		if p.opts.Logger != nil {
			p.opts.Logger.Warn("push flush failed, keeping samples buffered",
				"url", p.opts.URL, "attempts", p.opts.MaxAttempts,
				"pending", len(p.pending), "err", err)
		}
		return fmt.Errorf("monitor: push to %s failed after %d attempts: %w",
			p.opts.URL, p.opts.MaxAttempts, err)
	}
	n := len(p.pending)
	p.discard(n)
	p.sent.Add(uint64(n))
	p.pushes.Add(1)
	return nil
}

// RetryWithBackoff runs op up to maxAttempts times, sleeping base,
// 2*base, 4*base, ... between attempts — the suite's bounded-retry
// discipline, shared by the push sink and the alert webhook notifier so
// the backoff behavior cannot silently diverge.  onFail observes each
// failed attempt (e.g. a retry counter); the last error is returned when
// every attempt fails.
//
// The context bounds only the waiting, not the attempts: the first
// attempt always runs (a shutdown flush still gets its one try at the
// receiver), but a cancelled context aborts the backoff sleeps, so
// shutdown never blocks for the full ladder against a dead endpoint.
// A nil context never cancels.
func RetryWithBackoff(ctx context.Context, maxAttempts int, base time.Duration, onFail func(), op func() error) error {
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			if ctx == nil {
				time.Sleep(base << uint(attempt-1))
			} else {
				t := time.NewTimer(base << uint(attempt-1))
				select {
				case <-ctx.Done():
					t.Stop()
					return lastErr
				case <-t.C:
				}
			}
		}
		if lastErr = op(); lastErr == nil {
			return nil
		}
		if onFail != nil {
			onFail()
		}
	}
	return lastErr
}

func (p *PushSink) post(wire []byte, contentType, encoding string) error {
	req, err := http.NewRequest(http.MethodPost, p.opts.URL, bytes.NewReader(wire))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	if encoding != "" {
		req.Header.Set("Content-Encoding", encoding)
	}
	resp, err := p.opts.Client.Do(req)
	if err != nil {
		return err
	}
	defer DrainAndClose(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("receiver returned %s", resp.Status)
	}
	return nil
}

// DrainAndClose reads what is left of a response body (bounded: these
// are acknowledgements, not downloads) before closing it: net/http
// returns a connection to the keep-alive pool only once its body has
// been read to EOF, and closing it unread costs a TCP dial per request.
func DrainAndClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 64<<10))
	_ = body.Close()
}
