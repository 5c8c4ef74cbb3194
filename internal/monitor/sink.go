package monitor

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"likwid/internal/cli"
	"likwid/internal/telemetry"
)

// Consumer is one end of a Fanout: a sink for batches, a notifier for
// alert events.  Consumers are driven by the fanout's single goroutine,
// so implementations need no locking against each other; Close flushes
// and releases resources.
type Consumer[T any] interface {
	Name() string
	Write(v T) error
	Close() error
}

// Sink receives metric batches.
type Sink = Consumer[Batch]

// Fanout delivers values to consumers asynchronously through a bounded
// channel.  Publish never blocks the producer: when the channel is full
// the value is dropped and counted — a slow consumer costs data, never
// the sampling or evaluation cadence.
type Fanout[T any] struct {
	// mu guards the closed flag and the channel send against a
	// concurrent Close: publishers hold it shared, Close exclusively, so
	// the channel can never be closed mid-send.
	mu        sync.RWMutex
	closed    bool
	ch        chan T
	consumers []Consumer[T]
	dropped   atomic.Uint64
	written   atomic.Uint64
	errs      atomic.Uint64
	done      chan struct{}
	once      sync.Once

	// stage names the fan-out in metric names ("likwid_<stage>_...")
	// and log text; attrs gives a failed write's identifying log
	// attributes.
	stage  string
	attrs  func(T) []any
	logger atomic.Pointer[slog.Logger]
	// writeSeconds times each consumer's Write, one histogram per
	// consumer name, resolved at Instrument time (nil until then — the
	// loop checks, so an uninstrumented fanout pays one nil test).
	writeSeconds atomic.Pointer[map[string]*telemetry.Histogram]
}

// Dispatcher fans batches out to sinks.
type Dispatcher = Fanout[Batch]

// NewFanout starts the delivery goroutine.  stage names the fan-out in
// its metrics and warnings, attrs renders a value's identifying log
// attributes, and buffer is the bounded queue depth (default 64 when
// <= 0).
func NewFanout[T any](stage string, buffer int, attrs func(T) []any, consumers ...Consumer[T]) *Fanout[T] {
	if buffer <= 0 {
		buffer = 64
	}
	f := &Fanout[T]{
		ch:        make(chan T, buffer),
		consumers: consumers,
		done:      make(chan struct{}),
		stage:     stage,
		attrs:     attrs,
	}
	go f.loop()
	return f
}

// NewDispatcher starts a sink fan-out; buffer is the bounded queue depth
// (default 64 when <= 0).
func NewDispatcher(buffer int, sinks ...Sink) *Dispatcher {
	return NewFanout("sink", buffer, func(b Batch) []any { return []any{"collector", b.Collector} }, sinks...)
}

func (f *Fanout[T]) loop() {
	defer close(f.done)
	for v := range f.ch {
		hists := f.writeSeconds.Load()
		delivered := true
		for _, c := range f.consumers {
			var start time.Time
			if hists != nil {
				start = time.Now()
			}
			err := c.Write(v)
			if hists != nil {
				if h := (*hists)[c.Name()]; h != nil {
					h.Observe(time.Since(start).Seconds())
				}
			}
			if err != nil {
				f.errs.Add(1)
				delivered = false
				if log := f.logger.Load(); log != nil {
					attrs := append([]any{f.stage, c.Name()}, f.attrs(v)...)
					log.Warn(f.stage+" write failed", append(attrs, "err", err)...)
				}
			}
		}
		if delivered {
			f.written.Add(1)
		}
	}
}

// Publish enqueues a value without blocking; it reports false (and
// counts the drop) when the queue is full or the fanout is closed.
func (f *Fanout[T]) Publish(v T) bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		f.countDrop()
		return false
	}
	select {
	case f.ch <- v:
		return true
	default:
		f.countDrop()
		return false
	}
}

// countDrop counts one dropped value and warns once — the first drop is
// the signal ("this consumer cannot keep up"); every further drop is the
// same fact again, visible as the counter, not as log spam.
func (f *Fanout[T]) countDrop() {
	if f.dropped.Add(1) == 1 {
		if log := f.logger.Load(); log != nil {
			log.Warn(f.stage+" queue full, dropping (counted, further drops not logged)",
				"capacity", cap(f.ch))
		}
	}
}

// SetLogger routes the fanout's drop and write-failure warnings; nil
// (the default) keeps it silent, counters only.
func (f *Fanout[T]) SetLogger(log *slog.Logger) { f.logger.Store(log) }

// Instrument registers the fanout's self-metrics on reg under
// "likwid_<stage>_": queue occupancy gauges, drop/write/error counters,
// and one write-latency histogram per attached consumer.
func (f *Fanout[T]) Instrument(reg *telemetry.Registry) {
	p := "likwid_" + f.stage + "_"
	reg.GaugeFunc(p+"queue_depth", func() float64 { return float64(len(f.ch)) })
	reg.GaugeFunc(p+"queue_capacity", func() float64 { return float64(cap(f.ch)) })
	reg.CounterFunc(p+"dropped_total", func() float64 { return float64(f.dropped.Load()) })
	reg.CounterFunc(p+"written_total", func() float64 { return float64(f.written.Load()) })
	reg.CounterFunc(p+"errors_total", func() float64 { return float64(f.errs.Load()) })
	hists := make(map[string]*telemetry.Histogram, len(f.consumers))
	for _, c := range f.consumers {
		if _, dup := hists[c.Name()]; dup {
			continue // two consumers of one kind share the histogram
		}
		hists[c.Name()] = reg.Histogram(p+"write_seconds", telemetry.DurationBuckets, f.stage, c.Name())
		if sk, ok := c.(interface{ skippedNonFinite() uint64 }); ok {
			reg.CounterFunc(p+"skipped_total", func() float64 { return float64(sk.skippedNonFinite()) },
				f.stage, c.Name(), "reason", "non_finite")
		}
	}
	f.writeSeconds.Store(&hists)
}

// Dropped counts values rejected by the overflow policy.
func (f *Fanout[T]) Dropped() uint64 { return f.dropped.Load() }

// Written counts values every consumer wrote without error.
func (f *Fanout[T]) Written() uint64 { return f.written.Load() }

// Errors counts individual consumer write failures.
func (f *Fanout[T]) Errors() uint64 { return f.errs.Load() }

// Closed reports whether the fanout has been shut down — the "consumers
// up" half of a readiness probe.
func (f *Fanout[T]) Closed() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.closed
}

// Close drains the queue, closes every consumer, and returns the first
// consumer close error.
func (f *Fanout[T]) Close() error {
	var err error
	f.once.Do(func() {
		f.mu.Lock()
		f.closed = true
		close(f.ch)
		f.mu.Unlock()
		<-f.done
		for _, c := range f.consumers {
			if cerr := c.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	})
	return err
}

// appendValue renders sample values identically in CSV and /metrics, so
// the two text formats stay diffable against each other.
func appendValue(dst []byte, v float64) []byte { return strconv.AppendFloat(dst, v, 'g', 6, 64) }

func appendTime(dst []byte, t float64) []byte { return strconv.AppendFloat(dst, t, 'f', 6, 64) }

// finite reports whether f is neither NaN nor ±Inf — the values JSON
// cannot spell and receivers reject.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// The text rows split into three parts: the time, the identity (every
// byte between time and value, fixed per series and collector) and the
// value.  The CSV and JSON-lines sinks cache each collector's identities
// (see rowCache); the push wire composes all three per row.

// appendCSVIdentity appends a CSV row's identity:
// ,collector[,source][,labels],metric,scope,id, — the canonical label
// set holds commas between pairs, so its cell is quoted to stay one
// column.
func appendCSVIdentity(dst []byte, sm Sample, collector string, sourced, labelled bool) []byte {
	dst = append(append(dst, ','), collector...)
	if sourced {
		dst = append(append(dst, ','), sm.Source...)
	}
	if labelled {
		dst = append(dst, ',')
		if !sm.Labels.Empty() {
			dst = append(append(append(dst, '"'), sm.Labels.String()...), '"')
		}
	}
	dst = append(append(append(dst, ','), sm.Metric...), ',')
	dst = append(append(dst, sm.Scope.String()...), ',')
	return append(strconv.AppendInt(dst, int64(sm.ID), 10), ',')
}

func appendCSVValue(dst []byte, v float64) []byte { return append(appendValue(dst, v), '\n') }

// appendJSONLine appends one line-protocol record, byte-identical to
// json.Encoder.Encode(jsonSample{...}) — HTML escaping, sorted label
// keys and the trailing newline included.  A non-finite time, sent_at or
// value fails the record as Encode does, leaving dst unchanged.
func appendJSONLine(dst []byte, sm Sample, collector string, sentAt float64) ([]byte, error) {
	for _, f := range [...]float64{sm.Time, sentAt, sm.Value} {
		if !finite(f) {
			return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
	}
	dst = appendJSONTime(dst, sm.Time)
	if sentAt != 0 {
		dst = appendJSONFloat(append(dst, `,"sent_at":`...), sentAt)
	}
	return appendJSONValue(appendJSONIdentity(dst, sm, collector), sm.Value), nil
}

func appendJSONTime(dst []byte, t float64) []byte {
	return appendJSONFloat(append(dst, `{"time":`...), t)
}

// appendJSONIdentity appends a JSON line's identity, from the collector
// field to the value's key.
func appendJSONIdentity(dst []byte, sm Sample, collector string) []byte {
	dst = appendJSONString(append(dst, `,"collector":`...), collector)
	if sm.Source != "" {
		dst = appendJSONString(append(dst, `,"source":`...), sm.Source)
	}
	if !sm.Labels.Empty() {
		dst = appendJSONLabels(append(dst, `,"labels":`...), sm.Labels)
	}
	dst = appendJSONString(append(dst, `,"metric":`...), sm.Metric)
	dst = appendJSONString(append(dst, `,"scope":`...), sm.Scope.String())
	dst = strconv.AppendInt(append(dst, `,"id":`...), int64(sm.ID), 10)
	return append(dst, `,"value":`...)
}

// appendJSONLabels appends a non-empty label set as the JSON object
// encoding/json writes for its map: names sorted, as a set keeps them.
func appendJSONLabels(dst []byte, ls Labels) []byte {
	sep := byte('{')
	for _, p := range ls.view() {
		dst = append(appendJSONString(append(dst, sep), p.Name), ':')
		dst = appendJSONString(dst, p.Value)
		sep = ','
	}
	return append(dst, '}')
}

func appendJSONValue(dst []byte, v float64) []byte { return append(appendJSONFloat(dst, v), "}\n"...) }

// appendJSONFloat appends a finite float64 as encoding/json writes it:
// the shortest 'f' form, 'e' outside [1e-6, 1e21), with a one-digit
// negative exponent's leading zero dropped (1e-07 becomes 1e-7).
func appendJSONFloat(dst []byte, f float64) []byte {
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(dst, f, 'f', -1, 64)
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendJSONString appends s as a JSON string.  Printable ASCII outside
// encoding/json's escape set ('"', '\\' and the HTML-unsafe '<', '>',
// '&') is copied verbatim — every name the suite emits; anything else
// goes through json.Marshal, so the escaping rules stay json's own.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// ---- table sink -----------------------------------------------------------

// tableSink renders each batch as the suite's bordered ASCII table.
type tableSink struct {
	w      io.Writer
	scopes map[Scope]bool // nil = all scopes
}

// NewTableSink writes bordered tables to w; when scopes are given only
// samples of those domains are shown (the usual choice: socket + node).
func NewTableSink(w io.Writer, scopes ...Scope) Sink {
	ts := &tableSink{w: w}
	if len(scopes) > 0 {
		ts.scopes = map[Scope]bool{}
		for _, s := range scopes {
			ts.scopes[s] = true
		}
	}
	return ts
}

func (t *tableSink) Name() string { return "table" }

func (t *tableSink) Write(b Batch) error {
	// Fleet batches (any sample with a source) get a Source column,
	// labelled batches a Labels column; plain local batches keep the
	// compact four-column table.
	sourced, labelled := false, false
	for _, s := range b.Samples {
		if s.Source != "" {
			sourced = true
		}
		if !s.Labels.Empty() {
			labelled = true
		}
	}
	head := []string{"Metric", "Scope", "ID", "Value"}
	if labelled {
		head = append([]string{"Labels"}, head...)
	}
	if sourced {
		head = append([]string{"Source"}, head...)
	}
	tab := cli.NewTable(head...)
	rows := 0
	for _, s := range b.Samples {
		if t.scopes != nil && !t.scopes[s.Scope] {
			continue
		}
		row := []string{s.Metric, s.Scope.String(), strconv.Itoa(s.ID), cli.FormatMetric(s.Value)}
		if labelled {
			row = append([]string{s.Labels.String()}, row...)
		}
		if sourced {
			row = append([]string{s.Source}, row...)
		}
		tab.AddRow(row...)
		rows++
	}
	if rows == 0 {
		return nil
	}
	_, err := fmt.Fprintf(t.w, "%s t=%.3f s\n%s", b.Collector, b.Time, tab.String())
	return err
}

func (t *tableSink) Close() error { return nil }

// textFile is the output half of the CSV and JSON-lines sinks: a Write
// encodes its whole batch into buf, then hands it over in one write.
type textFile struct {
	w   *bufio.Writer
	c   io.Closer // may be nil
	buf []byte    // one batch's text, reused across Writes

	rows map[string]*rowCache // per collector
	// The newest encoded time: a batch's rows share one reading.
	timeBits uint64
	timeText []byte
}

// flush writes the encoded batch and flushes it through to the file.
func (f *textFile) flush() error {
	if _, err := f.w.Write(f.buf); err != nil {
		return err
	}
	return f.w.Flush()
}

func (f *textFile) Close() error {
	if err := f.w.Flush(); err != nil {
		return err
	}
	if f.c != nil {
		return f.c.Close()
	}
	return nil
}

// rowsOf returns the identity cache of one collector's batches.
func (f *textFile) rowsOf(collector string) *rowCache {
	if f.rows[collector] == nil {
		if f.rows == nil || len(f.rows) >= maxRowCaches {
			f.rows = map[string]*rowCache{}
		}
		f.rows[collector] = &rowCache{ends: []int{0}}
	}
	return f.rows[collector]
}

// appendTime appends t's encoding, reusing the previous row's when the
// time is the same.
func (f *textFile) appendTime(dst []byte, t float64, encode func([]byte, float64) []byte) []byte {
	if bits := math.Float64bits(t); bits != f.timeBits || f.timeText == nil {
		f.timeBits, f.timeText = bits, encode(f.timeText[:0], t)
	}
	return append(dst, f.timeText...)
}

// maxRowCaches bounds a text sink's per-collector caches: an agent runs
// a handful of collectors, so reaching it means arbitrary batch names.
const maxRowCaches = 64

// rowCache keeps, for each row position of one collector's batches, the
// row's key and its encoded identity.  A collector emits the same series
// in the same order every tick, so a row costs one Key comparison and a
// copy; a position whose key differs is encoded again, with every
// position after it.
type rowCache struct {
	keys []Key
	ends []int // identity i is ids[ends[i]:ends[i+1]]
	ids  []byte
}

// identity returns the identity of row i, sm, encoding it when the
// cached row i is not sm's series.
func (c *rowCache) identity(i int, sm Sample, encode func([]byte, Sample) []byte) []byte {
	if k := sm.Key(); i >= len(c.keys) || c.keys[i] != k {
		c.keys, c.ends = append(c.keys[:i], k), c.ends[:i+1]
		c.ids = encode(c.ids[:c.ends[i]], sm)
		c.ends = append(c.ends, len(c.ids))
	}
	return c.ids[c.ends[i]:c.ends[i+1]]
}

// ---- CSV sink -------------------------------------------------------------

// csvSink appends one row per sample: time,collector,metric,scope,id,value.
// Streams carrying fleet samples (a source on any sample of the first
// non-empty batch) add a source column after collector, and labelled
// streams a labels column after that (the canonical "k=v,k=v" set,
// CSV-quoted); a local agent's file keeps the compact six-column schema.
type csvSink struct {
	textFile
	head     bool
	sourced  bool
	labelled bool
}

// NewCSVSink writes CSV to w, closing c (which may be nil) on Close.
func NewCSVSink(w io.Writer, c io.Closer) Sink {
	return &csvSink{textFile: textFile{w: bufio.NewWriter(w), c: c}}
}

func (s *csvSink) Name() string { return "csv" }

func (s *csvSink) Write(b Batch) error {
	if !s.head {
		if len(b.Samples) == 0 {
			return nil // an empty batch must not fix the schema
		}
		s.head = true
		for _, sm := range b.Samples {
			if sm.Source != "" {
				s.sourced = true
			}
			if !sm.Labels.Empty() {
				s.labelled = true
			}
		}
		header := "time,collector"
		if s.sourced {
			header += ",source"
		}
		if s.labelled {
			header += ",labels"
		}
		header += ",metric,scope,id,value\n"
		if _, err := s.w.WriteString(header); err != nil {
			return err
		}
	}
	s.buf = s.buf[:0]
	rows := s.rowsOf(b.Collector)
	encode := func(dst []byte, sm Sample) []byte {
		return appendCSVIdentity(dst, sm, b.Collector, s.sourced, s.labelled)
	}
	for i, sm := range b.Samples {
		s.buf = s.appendTime(s.buf, sm.Time, appendTime)
		s.buf = appendCSVValue(append(s.buf, rows.identity(i, sm, encode)...), sm.Value)
	}
	return s.flush()
}

// ---- JSON-lines sink ------------------------------------------------------

// jsonlSink writes the line protocol.  JSON has no NaN or ±Inf, so a
// sample carrying one is skipped and counted; the rest of its batch is
// written.
type jsonlSink struct {
	textFile
	nonFinite atomic.Uint64
}

// NewJSONLSink writes one JSON object per sample to w, closing c (which
// may be nil) on Close.
func NewJSONLSink(w io.Writer, c io.Closer) Sink {
	return &jsonlSink{textFile: textFile{w: bufio.NewWriter(w), c: c}}
}

// jsonSample fixes the field order of the line protocol — the v3 wire
// schema shared by the jsonl file sink and the push→ingest pipeline.
// Source is the measuring agent's identity as its own field; the
// receiver stores it as Key.Source, so two agents emitting the same
// group stay distinct series without any metric-name mangling.
// Labels is the v3 addition: the sample's structured label set as a
// JSON object, omitted when empty — so a v2 record is exactly a v3
// record with no labels, and old payloads land on unchanged keys.
// SentAt is the push sink's wall-clock enqueue time in Unix seconds,
// omitted when zero: receivers subtract it from their own clock to
// histogram wire+queue latency and clock skew per source, and records
// without it (file sinks, old agents, hand-rolled payloads) decode
// exactly as before.
type jsonSample struct {
	Time      float64           `json:"time"`
	SentAt    float64           `json:"sent_at,omitempty"`
	Collector string            `json:"collector"`
	Source    string            `json:"source,omitempty"`
	Labels    map[string]string `json:"labels,omitempty"`
	Metric    string            `json:"metric"`
	Scope     string            `json:"scope"`
	ID        int               `json:"id"`
	Value     float64           `json:"value"`
}

func (s *jsonlSink) Name() string { return "jsonl" }

func (s *jsonlSink) Write(b Batch) error {
	s.buf = s.buf[:0]
	rows := s.rowsOf(b.Collector)
	encode := func(dst []byte, sm Sample) []byte { return appendJSONIdentity(dst, sm, b.Collector) }
	for i, sm := range b.Samples {
		id := rows.identity(i, sm, encode) // every position, kept or not
		if !finite(sm.Time) || !finite(sm.Value) {
			s.nonFinite.Add(1)
			continue
		}
		s.buf = s.appendTime(s.buf, sm.Time, appendJSONTime)
		s.buf = appendJSONValue(append(s.buf, id...), sm.Value)
	}
	return s.flush()
}

func (s *jsonlSink) skippedNonFinite() uint64 { return s.nonFinite.Load() }

// ---- sink spec parsing ----------------------------------------------------

// ParseSink builds a sink from an agent -sink specification:
//
//	stdout               bordered tables (socket + node scopes) on stdout
//	csv:PATH             CSV file, one row per sample
//	jsonl:PATH           JSON lines file, one object per sample
//	http:ADDR            in-process HTTP server (e.g. http::8090) serving
//	                     /metrics, /query and /ingest from the store
//	push:URL             batch, gzip and POST samples to a remote
//	                     receiver's /ingest endpoint (push:host:port or
//	                     push:http://host:port/ingest)
//	pushv4:URL           like push, but on the v4 binary columnar wire —
//	                     the receiver must understand its Content-Type
//	                     (upgrade receivers before agents)
//
// The store parameter backs the HTTP sink's /metrics, /query and /ingest
// endpoints, which need it, and may be nil for the file and push sinks.  The context bounds the
// push sink's retry backoff (the agent's shutdown path); nil means never
// cancelled.
func ParseSink(ctx context.Context, spec string, store *Store) (Sink, error) {
	if err := ValidateSinkSpec(spec); err != nil {
		return nil, err
	}
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "stdout", "table":
		return NewTableSink(os.Stdout, ScopeSocket, ScopeNode), nil
	case "csv", "jsonl":
		f, err := os.Create(arg)
		if err != nil {
			return nil, fmt.Errorf("monitor: sink %q: %w", spec, err)
		}
		if kind == "csv" {
			return NewCSVSink(f, f), nil
		}
		return NewJSONLSink(f, f), nil
	case "http":
		return NewHTTPSink(arg, store)
	default: // "push"/"pushv4", already validated
		url, _ := NormalizePushURL(arg)
		format := WireJSON
		if kind == "pushv4" {
			format = WireV4
		}
		return NewPushSink(PushOptions{URL: url, Source: DefaultPushSource(), Context: ctx, Format: format})
	}
}

// NormalizePushURL fills in the scheme and /ingest path a bare
// "push:host:port" spec leaves out.  The cluster sink's multi-target
// specs share it, so one grammar ("host:port" or a full http(s) URL,
// /ingest defaulted) cannot drift between the single- and multi-target
// paths.
func NormalizePushURL(arg string) (string, error) {
	if arg == "" {
		return "", fmt.Errorf("push sink needs a receiver URL (push:HOST:PORT or push:http://HOST:PORT/ingest)")
	}
	if strings.Contains(arg, ",") {
		return "", fmt.Errorf("push sink URL %q holds several targets; multi-target pools (shard@, mirror@, failover@) are cluster sink specs (internal/monitor/cluster)", arg)
	}
	if !strings.Contains(arg, "://") {
		arg = "http://" + arg
	}
	scheme, rest, _ := strings.Cut(arg, "://")
	if scheme != "http" && scheme != "https" {
		return "", fmt.Errorf("push sink URL must be http or https, got %q", scheme)
	}
	if rest == "" || strings.HasPrefix(rest, "/") {
		return "", fmt.Errorf("push sink URL %q has no host", arg)
	}
	if !strings.Contains(rest, "/") {
		arg += "/ingest"
	}
	return arg, nil
}

// ValidateSinkSpec checks a -sink specification's shape without side
// effects (no files created, no sockets bound), so agent configuration
// can fail fast before any collector comes up.  ParseSink runs it first,
// keeping the two in lockstep.
func ValidateSinkSpec(spec string) error {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "stdout", "table":
		return nil
	case "csv", "jsonl":
		if arg == "" {
			return fmt.Errorf("monitor: sink %q needs a file path (%s:PATH)", spec, kind)
		}
		return nil
	case "http":
		if arg == "" {
			return fmt.Errorf("monitor: sink %q needs a listen address (http:HOST:PORT)", spec)
		}
		return nil
	case "push", "pushv4":
		if _, err := NormalizePushURL(arg); err != nil {
			return fmt.Errorf("monitor: sink %q: %w", spec, err)
		}
		return nil
	default:
		return fmt.Errorf("monitor: unknown sink kind %q (stdout, csv:PATH, jsonl:PATH, http:ADDR, push:URL, pushv4:URL)", spec)
	}
}

// DefaultPushSource identifies this agent process at a receiver
// (hostname-pid), so two agents pushing the same metric names stay
// distinct series.  The cluster sink and the receiver's -forward re-push
// use the same identity rule, so a series keeps one source per
// originating process however many hops it crosses.
func DefaultPushSource() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "agent"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}
