package monitor

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"likwid/internal/telemetry"
)

// HTTPSink is the in-process scrape endpoint of the agent.  It implements
// Sink and serves, all from its store:
//
//	/metrics  the series handed to the sink (by Write or /ingest) at the
//	          store's newest point, Prometheus-style text:
//	          likwid_<metric>{source="nodeA",job="lbm",scope="socket",id="0"} <value> <sim time>
//	          (the source label appears only on fleet series; the series'
//	          structured label set follows it in canonical order)
//	/query    windowed time series from the ring-buffer store as JSON:
//	          /query?metric=NAME&scope=socket&id=0&from=0.5&to=2.0
//	          plus source=NAME for one agent's series or a '*' wildcard
//	          (source=node*) fanning out across sources, and
//	          label.NAME=VALUE selectors ('*' wildcards) slicing labelled
//	          series — any label selector returns the fan-out shape
//	/ingest   POST endpoint receiving (optionally gzipped) JSON-lines or
//	          v4 binary sample batches from remote push sinks; valid
//	          batches are appended to the store, so one receiver
//	          aggregates several node agents
//	/healthz  liveness plus batch accounting and the listener's uptime
//	          (a Go duration string)
type HTTPSink struct {
	store *Store
	ln    net.Listener
	srv   *http.Server
	mux   *http.ServeMux

	started time.Time // when the listener came up: /healthz's uptime

	batches  atomic.Uint64
	ingested atomic.Uint64 // samples accepted via /ingest

	// mu guards the identity memo and the ingest-label merge state.
	mu sync.RWMutex

	// identMemo remembers resolved v4 identity sections (ingestShape)
	// under their first identMemoPrefix bytes, bounded by bytes like
	// mergeCache; SetIngestLabels and SetRouter clear it.
	identMemo      map[string][]*ingestShape
	identMemoBytes int

	// ingestLabels are default labels merged under every ingested
	// sample's own labels (receiver -labels); mergeCache memoizes the
	// per-label-set merge (bounded, reset on overflow).
	ingestLabels Labels
	mergeCache   map[Labels]Labels

	// maxDecompressed caps one /ingest payload after gunzipping;
	// defaulted from maxIngestDecompressed at construction.
	maxDecompressed int64

	// router is the ingest routing stage (drop/rename/relabel), applied
	// to each decoded batch before label interning.  Swapped atomically
	// on reload; nil means no routes.
	router atomic.Pointer[Router]

	// forward, when set, observes every accepted ingest batch after it
	// landed in the store — the receiver→receiver re-push hook.  It runs
	// on the handler goroutine and must not block (likwid-agent installs
	// a Dispatcher.Publish, whose bounded queue drops-and-counts).  The
	// forward path never appends to the store itself, so forwarded
	// samples are journaled exactly once per hop — here, where they were
	// accepted — and never double-journal.
	forward atomic.Pointer[func(Batch)]

	// readiness checks registered by the embedding binary (notifiers
	// up); /readyz runs them all.  Guarded by readyMu, not h.mu: checks
	// may themselves read sink state.
	readyMu     sync.Mutex
	readyChecks []readyCheck

	// Telemetry instruments, resolved by Instrument (nil until then; the
	// handlers nil-check, so zero-value sinks — the fuzz harness builds
	// one from a struct literal — stay valid).
	treg      *telemetry.Registry
	tRequests *telemetry.Counter
	tAccepted *telemetry.Counter
	tRejected map[string]*telemetry.Counter
	tDecode   *telemetry.Histogram
	tAppend   *telemetry.Histogram
	tMemo     shapeCounters // the identity memo's

	// Per-source ingest instruments, memoized and capped: past
	// maxIngestSources distinct sources everything lands on the "other"
	// bucket, so a hostile pusher cannot balloon the registry.
	srcMu   sync.Mutex
	sources map[string]*sourceInstruments

	// now supplies the receiver clock for wire-latency and skew
	// measurements (nil means time.Now; tests pin it).
	now func() time.Time
}

// sourceInstruments is one pushing agent's ingest telemetry.
type sourceInstruments struct {
	samples *telemetry.Counter   // accepted samples
	wire    *telemetry.Histogram // receive − sent_at, floored at 0
	skew    *telemetry.Histogram // receive − sent_at, signed
}

// readyCheck is one named /readyz probe.
type readyCheck struct {
	name string
	fn   func() error
}

// NewHTTPSink listens on addr immediately (so scrapes work as soon as the
// agent is up) and serves in a background goroutine (ServeHTTPSink).
func NewHTTPSink(addr string, store *Store) (*HTTPSink, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: http sink: %w", err)
	}
	return ServeHTTPSink(ln, store)
}

// ServeHTTPSink serves the sink's endpoints on ln in a background
// goroutine.  The sink owns ln from here on: Close closes it, and so
// does a failed call.  The store backs /metrics, /query and /ingest, so
// it is required.
func ServeHTTPSink(ln net.Listener, store *Store) (*HTTPSink, error) {
	if store == nil {
		ln.Close()
		return nil, errors.New("monitor: http sink needs a store")
	}
	h := &HTTPSink{store: store, ln: ln, started: time.Now(), maxDecompressed: maxIngestDecompressed}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/query", h.handleQuery)
	mux.HandleFunc("/ingest", h.handleIngest)
	mux.HandleFunc("/healthz", h.handleHealth)
	mux.HandleFunc("/readyz", h.handleReady)
	h.mux = mux
	h.srv = &http.Server{Handler: mux}
	go func() { _ = h.srv.Serve(ln) }()
	return h, nil
}

// Handle mounts an extra endpoint on the sink's server — the extension
// point for layers above the monitor (the alert engine's /alerts and
// /rules) without this package depending on them.  ServeMux registration
// is internally locked, so mounting after the server is up is safe;
// registering a pattern twice panics, exactly like http.Handle.
func (h *HTTPSink) Handle(pattern string, handler http.Handler) {
	h.mux.Handle(pattern, handler)
}

// Addr returns the bound listen address (useful with port 0 in tests).
func (h *HTTPSink) Addr() string { return h.ln.Addr().String() }

// maxIngestSources caps the per-source instrument cardinality; sources
// past the cap share the "other" bucket.
const maxIngestSources = 256

// Instrument registers the ingest path's self-metrics on reg.  Call at
// wiring time, before traffic arrives.
func (h *HTTPSink) Instrument(reg *telemetry.Registry) {
	h.treg = reg
	h.tRequests = reg.Counter("likwid_ingest_requests_total")
	h.tAccepted = reg.Counter("likwid_ingest_accepted_total")
	h.tRejected = map[string]*telemetry.Counter{}
	for _, reason := range []string{"method", "encoding", "gzip", "too_large", "decode", "labels"} {
		h.tRejected[reason] = reg.Counter("likwid_ingest_rejected_total", "reason", reason)
	}
	h.tDecode = reg.Histogram("likwid_ingest_decode_seconds", telemetry.DurationBuckets)
	h.tAppend = reg.Histogram("likwid_ingest_append_seconds", telemetry.DurationBuckets)
	h.tMemo.instrument(reg, "ingest")
}

// reject counts one rejected ingest request under its reason (a no-op
// until Instrument).
func (h *HTTPSink) reject(reason string) {
	if c := h.tRejected[reason]; c != nil {
		c.Inc()
	}
}

// sourceInstr resolves (memoized) the per-source ingest instruments,
// folding the long tail past the cardinality cap into "other".
func (h *HTTPSink) sourceInstr(source string) *sourceInstruments {
	if h.treg == nil {
		return nil
	}
	if source == "" {
		source = "unknown"
	}
	h.srcMu.Lock()
	defer h.srcMu.Unlock()
	if si := h.sources[source]; si != nil {
		return si
	}
	if h.sources == nil {
		h.sources = map[string]*sourceInstruments{}
	}
	if len(h.sources) >= maxIngestSources {
		source = "other"
		if si := h.sources[source]; si != nil {
			return si
		}
	}
	// The label is "peer", not "source": source is a reserved label name
	// in the store (it is the Key dimension itself), and these metrics
	// must stay republishable as self/likwid_* series.
	si := &sourceInstruments{
		samples: h.treg.Counter("likwid_ingest_samples_total", "peer", source),
		wire:    h.treg.Histogram("likwid_ingest_wire_seconds", telemetry.DurationBuckets, "peer", source),
		skew:    h.treg.Histogram("likwid_ingest_clock_skew_seconds", telemetry.SkewBuckets, "peer", source),
	}
	h.sources[source] = si
	return si
}

// AddReadyCheck registers one named /readyz probe; a nil error from
// every probe is "ready".  The agent binary registers its notifier
// check here at startup.
func (h *HTTPSink) AddReadyCheck(name string, fn func() error) {
	h.readyMu.Lock()
	h.readyChecks = append(h.readyChecks, readyCheck{name: name, fn: fn})
	h.readyMu.Unlock()
}

// handleReady runs every registered readiness probe: 200 with per-check
// "ok" when all pass, 503 naming each failure otherwise.  No checks
// registered means ready — liveness alone.
func (h *HTTPSink) handleReady(w http.ResponseWriter, _ *http.Request) {
	h.readyMu.Lock()
	checks := append([]readyCheck(nil), h.readyChecks...)
	h.readyMu.Unlock()
	results := map[string]string{}
	ready := true
	for _, c := range checks {
		if err := c.fn(); err != nil {
			results[c.name] = err.Error()
			ready = false
		} else {
			results[c.name] = "ok"
		}
	}
	status := "ready"
	code := http.StatusOK
	if !ready {
		status = "unavailable"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(struct {
		Status string            `json:"status"`
		Checks map[string]string `json:"checks,omitempty"`
	}{Status: status, Checks: results})
}

// Name implements Sink.
func (h *HTTPSink) Name() string { return "http" }

// SetRouter installs (or, with nil, removes) the ingest routing stage.
// The swap is atomic, so reloads under live ingest traffic are safe;
// in-flight batches finish on the router they started with.
func (h *HTTPSink) SetRouter(r *Router) {
	if r != nil && r.Len() == 0 {
		r = nil
	}
	h.router.Store(r)
	h.mu.Lock()
	h.identMemo = nil
	h.mu.Unlock()
}

// Router returns the installed routing stage (nil when none), for
// status endpoints.
func (h *HTTPSink) Router() *Router { return h.router.Load() }

// SetForward installs (or, with nil, removes) the accepted-batch
// observer backing receiver→receiver re-push: every batch /ingest
// accepts is handed to f after its samples landed in the store, with
// labels already merged and interned.  f runs on the handler goroutine
// and must not block; installing is atomic, so wiring a forward under
// live traffic is safe.
func (h *HTTPSink) SetForward(f func(Batch)) {
	if f == nil {
		h.forward.Store(nil)
		return
	}
	h.forward.Store(&f)
}

// SetIngestLabels installs default labels merged under every ingested
// sample's own labels (a per-name default: the sample wins on
// conflict) — the receiver half of likwid-agent -labels, stamping e.g.
// cluster=emmy onto a whole fleet's pushes.  Call before traffic
// arrives (likwid-agent does, right after constructing the sink).
func (h *HTTPSink) SetIngestLabels(ls Labels) {
	h.mu.Lock()
	h.ingestLabels = ls
	h.mergeCache, h.identMemo = nil, nil
	h.mu.Unlock()
}

// Write exposes the batch's series on /metrics.  The points are already
// in the store (the scheduler appends before it publishes), so the
// batch's shape is normally the one the store remembers: one index
// lookup for the batch.  Otherwise each sample is looked up; a sample
// whose series the store does not hold shows nothing.
func (h *HTTPSink) Write(b Batch) error {
	if rows := h.store.remembered(b.Samples); rows != nil {
		for _, sr := range rows {
			sr.expose()
		}
	} else {
		idx := *h.store.index.Load()
		for _, s := range b.Samples {
			if sr := idx[s.Key()]; sr != nil {
				sr.expose()
			}
		}
	}
	h.batches.Add(1)
	return nil
}

// Close stops the server and gives the port back at once: the listener
// is closed here too, since Serve may not have taken it over yet.
func (h *HTTPSink) Close() error {
	err := h.srv.Close()
	h.ln.Close()
	return err
}

func (h *HTTPSink) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	idx := *h.store.index.Load()
	samples := make([]Sample, 0, len(idx))
	for k, sr := range idx {
		if !sr.exposed.Load() {
			continue
		}
		sr.mu.RLock()
		p := sr.shown
		sr.mu.RUnlock()
		if math.IsInf(p.Time, -1) {
			continue
		}
		samples = append(samples, Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope, ID: k.ID,
			Labels: k.Labels, Time: p.Time, Value: p.Value})
	}
	sort.Slice(samples, func(i, j int) bool {
		a, b := samples[i], samples[j]
		if a.Metric != b.Metric {
			return a.Metric < b.Metric
		}
		if a.Source != b.Source {
			return a.Source < b.Source
		}
		if a.Scope != b.Scope {
			return a.Scope < b.Scope
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Labels.String() < b.Labels.String()
	})
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	buf := make([]byte, 0, 128*len(samples))
	for _, s := range samples {
		// Identity labels lead (source, then the structured set in
		// canonical order), the topology labels close the block.
		buf = append(append(append(buf, "likwid_"...), SanitizeMetric(s.Metric)...), '{')
		if s.Source != "" {
			buf = append(strconv.AppendQuote(append(buf, "source="...), s.Source), ',')
		}
		for _, p := range s.Labels.view() {
			buf = append(strconv.AppendQuote(append(append(buf, p.Name...), '='), p.Value), ',')
		}
		buf = strconv.AppendQuote(append(buf, "scope="...), s.Scope.String())
		buf = append(strconv.AppendInt(append(buf, `,id="`...), int64(s.ID), 10), `"} `...)
		buf = append(appendValue(buf, s.Value), ' ')
		buf = append(appendTime(buf, s.Time), '\n')
	}
	_, _ = w.Write(buf)
}

// labelSelectors extracts the label.NAME=PATTERN parameters of a /query
// request ('*' runs wildcard in the pattern, composable with source=).
func labelSelectors(q map[string][]string) ([]Label, error) {
	var sels []Label
	for key, vals := range q {
		name, ok := strings.CutPrefix(key, "label.")
		if !ok {
			continue
		}
		if !ValidLabelName(name) {
			return nil, fmt.Errorf("bad label selector name %q", name)
		}
		if ReservedLabelName(name) {
			return nil, fmt.Errorf("label name %q is reserved; use the %s= parameter instead", name, name)
		}
		if len(vals) != 1 {
			return nil, fmt.Errorf("label selector %q given %d times, want one", key, len(vals))
		}
		if vals[0] == "" {
			return nil, fmt.Errorf("empty label selector %q", key)
		}
		sels = append(sels, Label{Name: name, Value: vals[0]})
	}
	return sels, nil
}

func (h *HTTPSink) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	metric := q.Get("metric")
	if metric == "" {
		http.Error(w, "missing metric parameter", http.StatusBadRequest)
		return
	}
	source := q.Get("source")
	sels, err := labelSelectors(q)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Label slicing and metric wildcards are inherently cross-source:
	// without an explicit source parameter they fan out across the
	// fleet instead of silently matching only local (sourceless) series
	// on a receiver.  An explicit source= (even empty, meaning
	// local-only) is honored.
	if _, explicit := q["source"]; !explicit &&
		(len(sels) > 0 || strings.Contains(metric, "*")) {
		source = "*"
	}
	scope := ScopeNode
	if sc := q.Get("scope"); sc != "" {
		var err error
		if scope, err = ParseScope(sc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	id := 0
	if is := q.Get("id"); is != "" {
		var err error
		if id, err = strconv.Atoi(is); err != nil {
			http.Error(w, "bad id parameter", http.StatusBadRequest)
			return
		}
	}
	from, to := 0.0, -1.0
	if fs := q.Get("from"); fs != "" {
		v, err := strconv.ParseFloat(fs, 64)
		if err != nil {
			http.Error(w, "bad from parameter", http.StatusBadRequest)
			return
		}
		from = v
	}
	if ts := q.Get("to"); ts != "" {
		v, err := strconv.ParseFloat(ts, 64)
		if err != nil {
			http.Error(w, "bad to parameter", http.StatusBadRequest)
			return
		}
		to = v
	}
	w.Header().Set("Content-Type", "application/json")
	if strings.Contains(source, "*") || strings.Contains(metric, "*") || len(sels) > 0 {
		// Wildcards (source and/or metric) and label selection: one
		// response entry per matched series (a selector can match
		// several series even under one exact source), streamed so a
		// fleet-wide fan-out never holds the whole payload in memory.
		h.writeQuerySeries(w, h.store.Select(Selector{
			Source: source, Metric: metric, QueryForm: true,
			Labels: sels, Scope: scope, ID: id,
		}), from, to)
		return
	}
	key := h.resolveKey(source, metric, scope, id)
	entry := appendQueryEntry(nil, key, dedupePoints(h.store.Window(key, from, to)))
	_, _ = w.Write(append(entry, '\n'))
}

// queryFlushBytes is how much of a fan-out /query response is encoded
// before it is handed to the connection.
const queryFlushBytes = 32 << 10

// appendQueryEntry appends one series' /query object: source (when
// set), metric, scope, id, labels (when any) and points, byte-identical
// to encoding/json over the same fields.  JSON has no NaN or ±Inf, so a
// point with a non-finite time or value is omitted — the series and its
// other points are still written, as the JSON-lines sink does.  nil
// points (a series the store does not hold) is written as null.
func appendQueryEntry(dst []byte, k Key, pts []Point) []byte {
	dst = append(dst, '{')
	if k.Source != "" {
		dst = append(appendJSONString(append(dst, `"source":`...), k.Source), ',')
	}
	dst = appendJSONString(append(dst, `"metric":`...), k.Metric)
	dst = appendJSONString(append(dst, `,"scope":`...), k.Scope.String())
	dst = strconv.AppendInt(append(dst, `,"id":`...), int64(k.ID), 10)
	if !k.Labels.Empty() {
		dst = appendJSONLabels(append(dst, `,"labels":`...), k.Labels)
	}
	if pts == nil {
		return append(dst, `,"points":null}`...)
	}
	dst = append(dst, `,"points":[`...)
	open := len(dst)
	for _, p := range pts {
		if !finite(p.Time) || !finite(p.Value) {
			continue
		}
		if len(dst) > open {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(append(dst, `{"time":`...), p.Time)
		dst = append(appendJSONFloat(append(dst, `,"value":`...), p.Value), '}')
	}
	return append(dst, "]}"...)
}

// dedupePoints collapses same-timestamp runs of a sorted window to their
// newest member, in place.  A mirrored HA pair both forwarding into one
// federation root stores each sample once per replica; /query merges the
// replicas back into each Key+timestamp exactly once, keeping the last
// write — the same latest-wins rule /metrics applies.
func dedupePoints(pts []Point) []Point {
	if len(pts) < 2 {
		return pts
	}
	out := pts[:0]
	for i, p := range pts {
		if i+1 < len(pts) && pts[i+1].Time == p.Time {
			continue // a newer write of the same instant follows
		}
		out = append(out, p)
	}
	return out
}

// writeQuerySeries streams the fan-out /query payload: the matched
// series are encoded one at a time, with a single window buffer reused
// across them, into one buffer handed to the connection every
// queryFlushBytes, so a wildcard over thousands of fleet series never
// materializes the full response — or every series' points — in memory
// at once.
func (h *HTTPSink) writeQuerySeries(w http.ResponseWriter, keys []Key, from, to float64) {
	buf := append(make([]byte, 0, 4096), `{"series":[`...)
	var window []Point
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		window = h.store.WindowInto(k, from, to, window)
		pts := dedupePoints(window)
		if pts == nil {
			pts = []Point{}
		}
		if buf = appendQueryEntry(buf, k, pts); len(buf) >= queryFlushBytes {
			_, _ = w.Write(buf)
			buf = buf[:0]
		}
	}
	_, _ = w.Write(append(buf, "]}\n"...))
}

// resolveKey accepts either the exact stored metric name or its sanitized
// exposition form, so /query?metric=memory_bandwidth_mbytes_s works after
// scraping /metrics.
func (h *HTTPSink) resolveKey(source, metric string, scope Scope, id int) Key {
	key := Key{Source: source, Metric: metric, Scope: scope, ID: id}
	if h.store.Len(key) > 0 {
		return key
	}
	// The sanitized reverse lookup resolves through the selector index
	// (bySanitized postings) instead of scanning every stored key.
	keys := h.store.Select(Selector{
		Source: source, Metric: metric, QueryForm: true,
		Scope: scope, ID: id,
	})
	if len(keys) > 0 {
		return keys[0]
	}
	return key
}

// ingest limits: the compressed body is capped by MaxBytesReader, the
// decompressed stream by limitedReader, so a gzip bomb cannot balloon
// the receiver.  The decompressed cap is a per-sink field (defaulted
// from the constant) so the at-limit regression test can shrink its
// own sink instead of mutating shared state under live handlers.
const (
	maxIngestCompressed   = 8 << 20
	maxIngestDecompressed = 64 << 20
)

// errTooLarge marks a decompressed payload exceeding the ingest limit.
var errTooLarge = errors.New("payload too large")

// limitedReader errors (rather than silently truncating, as
// io.LimitReader would) when the stream holds MORE than n bytes.  A
// stream of exactly n bytes is within the limit: at the cap the reader
// probes the underlying stream for one more byte and reports EOF when
// none follows, so an at-limit payload is accepted, not 413'd.
type limitedReader struct {
	r io.Reader
	n int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		var probe [1]byte
		for {
			n, err := l.r.Read(probe[:])
			if n > 0 {
				return 0, errTooLarge
			}
			if err != nil {
				return 0, err // io.EOF: exactly at the limit, a clean end
			}
		}
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// decodeIngest parses and validates one JSON-lines ingest payload into
// b, in the group shape decodeV4 produces (one one-row group per record)
// and under the same rules (groupBatch.check).  It is all-or-nothing: any
// malformed record rejects the whole batch, and labels are validated but
// not interned — a later record or stage may still reject the batch, and
// a 400 must leave no residue, not even in the label intern table.
//
// One schema, whose optional fields mark its generations:
//
//	{"source":"nodeA", "labels":{"job":"lbm"}, "metric":"bw", ...}
//	    — source lands verbatim in Key.Source, the label object interned
//	    in Key.Labels; absent (or empty) it is the empty set.  A record
//	    without a source is stored sourceless, its metric name verbatim
//	    (a slash in it is part of the name, never a source boundary).
//
// sent_at (0 when absent) is advisory latency metadata: no value of it
// ever rejects a batch; the receiver's skew histogram clamps instead.
//
// The payload is held as one string copy that every scanned record's
// strings are substrings of.  A record in the form appendJSONLine writes
// is scanned in place (scanJSONRecord); any other value is decoded by
// encoding/json alone, which then decides what it means, so the accepted
// records, their values and every error text are encoding/json's.
func decodeIngest(data []byte, b *groupBatch) error {
	s := string(data)
	// The columns are sized for a record a line, but for no more records
	// than the body could hold if it were all accepted ones.
	n := min(strings.Count(s, "\n")+1, len(s)/minJSONRecord)
	b.times, b.sentAts, b.values = slices.Grow(b.times, n), slices.Grow(b.sentAts, n), slices.Grow(b.values, n)
	b.groups = slices.Grow(b.groups, n)
	var js jsonSample // reused per record; its labels go to b.pairs
	for i, p := 0, skipJSONSpace(s, 0); p < len(s); i, p = i+1, skipJSONSpace(s, p) {
		first := len(b.pairs)
		end, ok := scanJSONRecord(s, p, &js, b)
		if !ok {
			b.pairs = b.pairs[:first]
			var err error
			if end, err = decodeJSONRecord(data, p, &js, b); err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
		}
		p = end
		g := sampleGroup{key: Key{Source: js.Source, Metric: js.Metric}, lo: len(b.times), hi: len(b.times) + 1}
		b.times = append(b.times, js.Time)
		b.sentAts = append(b.sentAts, js.SentAt)
		b.values = append(b.values, js.Value)
		g.pairs = b.pairs[first:len(b.pairs):len(b.pairs)]
		if err := b.check(&g, js.Scope, int64(js.ID)); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		b.groups = append(b.groups, g)
	}
	return nil
}

// minJSONRecord is the length of the shortest record /ingest accepts,
// {"metric":"m","scope":"node"}.
const minJSONRecord = len(`{"metric":"m","scope":"node"}`)

// decodeJSONRecord decodes the one JSON value at data[p:] as the
// line-protocol record encoding/json makes of it, its labels appended to
// b.pairs, and returns the offset just after the value.
func decodeJSONRecord(data []byte, p int, js *jsonSample, b *groupBatch) (int, error) {
	dec := json.NewDecoder(bytes.NewReader(data[p:]))
	var rec jsonSample
	if err := dec.Decode(&rec); err != nil {
		return 0, err
	}
	for name, value := range rec.Labels {
		b.pairs = append(b.pairs, Label{Name: name, Value: value})
	}
	*js = rec
	return p + int(dec.InputOffset()), nil
}

// skipJSONSpace skips the whitespace encoding/json allows between values.
func skipJSONSpace(s string, p int) int {
	for p < len(s) && (s[p] == ' ' || s[p] == '\n' || s[p] == '\t' || s[p] == '\r') {
		p++
	}
	return p
}

// scanJSONRecord parses the record at s[p:] if it is in the form
// appendJSONLine writes: an object on one line, no whitespace inside it,
// each of the schema's keys spelled exactly and at most once, strings of
// printable ASCII without '"' or '\\', numbers in JSON grammar that
// strconv parses without error (an integer for id), and labels a flat
// object of at most maxLabels distinct names, whose pairs it appends to
// b.pairs in document order.  It returns the offset just after the
// object, or false for any other record, which may leave pairs behind
// in b.pairs.
func scanJSONRecord(s string, p int, js *jsonSample, b *groupBatch) (int, bool) {
	*js = jsonSample{}
	if s[p] != '{' {
		return 0, false
	}
	var seen uint16
	for p++; ; p++ {
		key, q, ok := scanJSONString(s, p)
		if !ok || q >= len(s) || s[q] != ':' {
			return 0, false
		}
		field := slices.Index(jsonKeys[:], key)
		if field < 0 || seen&(1<<field) != 0 {
			return 0, false
		}
		seen |= 1 << field
		switch p = q + 1; field {
		case fieldTime:
			js.Time, p, ok = scanJSONFloat(s, p)
		case fieldSentAt:
			js.SentAt, p, ok = scanJSONFloat(s, p)
		case fieldCollector:
			js.Collector, p, ok = scanJSONString(s, p)
		case fieldSource:
			js.Source, p, ok = scanJSONString(s, p)
		case fieldLabels:
			p, ok = scanJSONLabels(s, p, b)
		case fieldMetric:
			js.Metric, p, ok = scanJSONString(s, p)
		case fieldScope:
			js.Scope, p, ok = scanJSONString(s, p)
		case fieldID:
			js.ID, p, ok = scanJSONInt(s, p)
		case fieldValue:
			js.Value, p, ok = scanJSONFloat(s, p)
		}
		if !ok || p >= len(s) {
			return 0, false
		}
		if s[p] == '}' {
			break
		}
		if s[p] != ',' {
			return 0, false
		}
	}
	if p++; p < len(s) && s[p] != '\n' {
		return 0, false
	}
	return p, true
}

// jsonKeys are the line-protocol record's keys, spelled as jsonSample's
// tags spell them; scanJSONRecord numbers them by their index here.
var jsonKeys = [...]string{"time", "sent_at", "collector", "source", "labels", "metric", "scope", "id", "value"}

const (
	fieldTime = iota
	fieldSentAt
	fieldCollector
	fieldSource
	fieldLabels
	fieldMetric
	fieldScope
	fieldID
	fieldValue
)

// jsonPlain marks the bytes encoding/json decodes verbatim inside a
// string that scanJSONString takes: printable ASCII but '"' and '\\'.
var jsonPlain = func() (plain [256]bool) {
	for c := ' '; c <= '~'; c++ {
		plain[c] = c != '"' && c != '\\'
	}
	return plain
}()

// scanJSONString scans a string of jsonPlain bytes at s[p:] and returns
// its contents and the offset after its closing quote.
func scanJSONString(s string, p int) (string, int, bool) {
	if p >= len(s) || s[p] != '"' {
		return "", 0, false
	}
	q := p + 1
	for q < len(s) && jsonPlain[s[q]] {
		q++
	}
	if q >= len(s) || s[q] != '"' {
		return "", 0, false
	}
	return s[p+1 : q], q + 1, true
}

// scanJSONLabels scans a labels object of at most maxLabels string pairs
// with distinct names at s[p:], appending its pairs to b.pairs.
func scanJSONLabels(s string, p int, b *groupBatch) (int, bool) {
	if p >= len(s) || s[p] != '{' {
		return 0, false
	}
	if p++; p < len(s) && s[p] == '}' {
		return p + 1, true
	}
	first := len(b.pairs)
	for {
		name, q, ok := scanJSONString(s, p)
		if !ok || q >= len(s) || s[q] != ':' || len(b.pairs)-first == maxLabels {
			return 0, false
		}
		value, q, ok := scanJSONString(s, q+1)
		if !ok || q >= len(s) {
			return 0, false
		}
		for _, l := range b.pairs[first:] {
			if l.Name == name {
				return 0, false
			}
		}
		b.pairs = append(b.pairs, Label{Name: name, Value: value})
		switch s[q] {
		case '}':
			return q + 1, true
		case ',':
			p = q + 1
		default:
			return 0, false
		}
	}
}

// scanJSONDigits returns the end of the run of decimal digits at s[p:].
func scanJSONDigits(s string, p int) int {
	for p < len(s) && '0' <= s[p] && s[p] <= '9' {
		p++
	}
	return p
}

// scanJSONInteger returns the end of the JSON integer -?(0|[1-9][0-9]*)
// at s[p:], or -1.
func scanJSONInteger(s string, p int) int {
	if p < len(s) && s[p] == '-' {
		p++
	}
	switch {
	case p >= len(s) || s[p] < '0' || s[p] > '9':
		return -1
	case s[p] == '0':
		return p + 1
	}
	return scanJSONDigits(s, p)
}

// scanJSONInt scans the JSON integer at s[p:], as encoding/json decodes
// it into an int.
func scanJSONInt(s string, p int) (int, int, bool) {
	end := scanJSONInteger(s, p)
	if end < 0 {
		return 0, 0, false
	}
	n, err := strconv.ParseInt(s[p:end], 10, strconv.IntSize)
	return int(n), end, err == nil
}

// scanJSONFloat scans the JSON number at s[p:], as encoding/json decodes
// it into a float64: an out-of-range one is left to encoding/json.
func scanJSONFloat(s string, p int) (float64, int, bool) {
	end := scanJSONInteger(s, p)
	if end < 0 {
		return 0, 0, false
	}
	if end < len(s) && s[end] == '.' {
		if q := scanJSONDigits(s, end+1); q > end+1 {
			end = q
		} else {
			return 0, 0, false
		}
	}
	if end < len(s) && (s[end] == 'e' || s[end] == 'E') {
		q := end + 1
		if q < len(s) && (s[q] == '+' || s[q] == '-') {
			q++
		}
		if end = scanJSONDigits(s, q); end == q {
			return 0, 0, false
		}
	}
	f, err := strconv.ParseFloat(s[p:end], 64)
	return f, end, err == nil
}

// ingestResponse is the /ingest JSON payload.
type ingestResponse struct {
	Accepted int `json:"accepted"`
}

// gzipReader is a pooled inflater for gzipped /ingest bodies.  Reset
// would wrap a plain body in a fresh 4 KiB bufio.Reader, and a new
// gzip.Reader allocates its inflate window, so both are kept.
type gzipReader struct {
	br bufio.Reader
	zr gzip.Reader
}

var gzipReaders = sync.Pool{New: func() any { return new(gzipReader) }}

// openGzip takes a pooled reader and starts it on body's gzip header.
// The caller releases it, whatever the error.
func openGzip(body io.Reader) (*gzipReader, error) {
	g := gzipReaders.Get().(*gzipReader)
	g.br.Reset(body)
	return g, g.zr.Reset(&g.br)
}

// release returns g to the pool, holding on to no body.
func (g *gzipReader) release() {
	g.br.Reset(nil)
	gzipReaders.Put(g)
}

func (h *HTTPSink) handleIngest(w http.ResponseWriter, r *http.Request) {
	if h.tRequests != nil {
		h.tRequests.Inc()
	}
	if r.Method != http.MethodPost {
		h.reject("method")
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	decodeStart := time.Now()
	buf := ingestBufs.Get().(*bytes.Buffer)
	defer ingestBufs.Put(buf)
	buf.Reset()
	answered, err := h.readIngest(w, r, buf)
	if answered {
		return
	}
	data := buf.Bytes()
	// Content negotiation: the v4 binary columnar format announces
	// itself via its Content-Type; everything else (including absent or
	// unknown types) is the JSON-lines path.  The Content-Encoding
	// handling applies to both, and both read the body whole.  Either
	// decoder fills the one group-shaped batch the stages below resolve,
	// once per group — unless the v4 payload repeats a memoized
	// identity, whose shape is already resolved.
	var (
		b  groupBatch
		sh *ingestShape
		v4 []byte // the v4 payload
	)
	if err == nil {
		if ct, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) == V4ContentType {
			v4 = data
			if sh = h.memoHit(data, &b); sh == nil {
				h.tMemo.count(shapeMiss)
				err = decodeV4(data, &b)
			}
		} else {
			err = decodeIngest(data, &b)
		}
	}
	if h.tDecode != nil {
		h.tDecode.Observe(time.Since(decodeStart).Seconds())
	}
	h.ingest(w, &b, sh, v4, err)
}

// ingestBufs pools the buffers /ingest reads bodies into: a body is
// decoded into strings and columns of its own before its request ends,
// so nothing holds on to the buffer.
var ingestBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readIngest reads a POST /ingest body whole into buf, within the
// ingest limits, inflating a gzipped one through a pooled reader.  An
// unsupported encoding or a bad gzip header is answered here (answered
// is true); a failed read, an oversized body among them, comes back as
// err, before any record is parsed.
func (h *HTTPSink) readIngest(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) (answered bool, err error) {
	body := io.Reader(http.MaxBytesReader(w, r.Body, maxIngestCompressed))
	switch enc := r.Header.Get("Content-Encoding"); enc {
	case "gzip":
		g, gzErr := openGzip(body)
		defer g.release()
		if gzErr != nil {
			h.reject("gzip")
			http.Error(w, "bad gzip payload: "+gzErr.Error(), http.StatusBadRequest)
			return true, nil
		}
		limit := h.maxDecompressed
		if limit <= 0 {
			limit = maxIngestDecompressed // zero-value sinks (tests, literals)
		}
		body = &limitedReader{r: &g.zr, n: limit}
	case "", "identity":
	default:
		h.reject("encoding")
		http.Error(w, "unsupported content encoding "+enc, http.StatusUnsupportedMediaType)
		return true, nil
	}
	// Content-Length sizes the read buffer up front (for a gzipped body
	// it is only a lower bound, which is still a head start).
	buf.Grow(int(max(0, min(r.ContentLength, maxIngestCompressed))) + bytes.MinRead)
	_, err = buf.ReadFrom(body)
	return false, err
}

// ingest lands a decoded payload b, or answers err, the error reading or
// decoding it returned.  sh is the memoized shape of a v4 payload that
// hit the identity memo, v4 the payload of any v4 request (nil for JSON
// lines).
func (h *HTTPSink) ingest(w http.ResponseWriter, b *groupBatch, sh *ingestShape, v4 []byte, err error) {
	if err != nil {
		status := http.StatusBadRequest
		reason := "decode"
		var tooBig *http.MaxBytesError
		if errors.Is(err, errTooLarge) || errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
			reason = "too_large"
		}
		h.reject(reason)
		http.Error(w, "bad ingest payload: "+err.Error(), status)
		return
	}
	// Resolve: a JSON batch lands straight from its decoded groups, since
	// nothing memoizes it; a v4 one through a shape, fresh or memoized.
	fresh := sh == nil
	switch {
	case v4 == nil:
		_, _, err = h.prepare(b)
	case fresh:
		sh, err = h.resolve(b, v4)
	case sh.router != nil:
		sh.router.count(sh.routed)
	}
	if err != nil {
		h.reject("labels")
		http.Error(w, "bad ingest payload: "+err.Error(), http.StatusBadRequest)
		return
	}
	// Nothing can reject the batch any more: append, journal.
	fp := h.forward.Load()
	var samples []Sample
	var accepted int
	if sh == nil {
		samples, accepted = land(h, b.groups, b, fp != nil)
	} else {
		samples, accepted = land(h, sh.groups, b, fp != nil)
	}
	if fresh && sh != nil {
		h.mu.Lock()
		if sh.router == h.router.Load() && sh.defaults == h.ingestLabels {
			h.rememberLocked(sh)
		}
		h.mu.Unlock()
	}
	// Re-push the accepted batch up the federation tree.  The samples
	// were built for this request (the journal copied what it wanted),
	// so the slice is handed off without a copy.
	if fp != nil && len(samples) > 0 {
		(*fp)(Batch{Collector: "forward", Time: samples[len(samples)-1].Time, Samples: samples})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ingestResponse{Accepted: accepted})
}

// ingestShape is a decoded payload's identity resolved through every
// ingest stage — routed, label-merged, interned, its series created —
// down to what landing its columns takes: per group the store series
// and the rows [lo, hi).  Keys come from series.key; nothing aliases the
// request.  A v4 identity section is memoized as one
// (HTTPSink.identMemo): a payload that repeats it byte for byte decodes
// only its columns.  Series never die today; a
// Store.Retire (ROADMAP item 16) must clear these memos.
type ingestShape struct {
	ident    []byte  // the v4 identity section, copied
	starts   []int32 // the directory groups' first rows
	rows     int     // the directory's row total
	groups   []landGroup
	router   *Router  // the router the groups took, and
	routed   []uint64 // the rows each of its routes matched
	defaults Labels   // the ingest labels merged in
}

// landGroup is one series' run of rows in an ingestShape.
type landGroup struct {
	series *series
	lo, hi int32
}

// lander is a group that rows land through: an ingestShape's landGroup,
// or a decoded JSON batch's own sampleGroup, which nothing memoizes.
type lander[G any] interface {
	*G
	land() (s *series, lo, hi int)
}

func (g *landGroup) land() (*series, int, int) { return g.series, int(g.lo), int(g.hi) }

func (g *sampleGroup) land() (*series, int, int) { return g.series, g.lo, g.hi }

// land appends a resolved batch's rows through groups.  The batch comes
// back as samples when the journal or the caller wants them (see
// appendGroups).
func land[G any, P lander[G]](h *HTTPSink, groups []G, b *groupBatch, wantSamples bool) (samples []Sample, accepted int) {
	appendStart := time.Now()
	samples, accepted = appendGroups[G, P](h.store, groups, b.times, b.values, wantSamples)
	if h.tAppend != nil {
		h.tAppend.Observe(time.Since(appendStart).Seconds())
	}
	h.ingested.Add(uint64(accepted))
	if h.tAccepted != nil {
		h.tAccepted.Add(uint64(accepted))
		observeIngest[G, P](h, groups, b.sentAts)
	}
	return samples, accepted
}

// maxIdentMemoBytes bounds the identity memo by bytes only, since how
// many identities come round between resets is the fleet's: about 280
// of a 512-series tick fit.  Past it the memo is reset, like mergeCache.
// A variable only so tests can lower it.  An identity section's first
// identMemoPrefix bytes (the string table, which names the sending
// agent) are its key, so a shorter one (a payload of a group or two) is
// not memoized.
var maxIdentMemoBytes = 4 << 20

const identMemoPrefix = 64

// memoHit looks data's identity section up in the memo, byte for byte,
// and decodes the columns after it into b.  Anything short of a clean
// hit — no entry, a column that does not decode, a row the screen
// rejects — returns nil, and the caller decodes in full, which rejects
// a bad payload with the same message as if it had never been seen.
// The identity section is self-delimiting, so a payload that starts
// with an entry's bytes has exactly that identity.
func (h *HTTPSink) memoHit(data []byte, b *groupBatch) *ingestShape {
	var sh *ingestShape
	h.mu.RLock()
	for _, e := range h.identMemo[string(data[:min(len(data), identMemoPrefix)])] {
		if bytes.HasPrefix(data, e.ident) {
			sh = e
			break
		}
	}
	h.mu.RUnlock()
	if sh == nil {
		return nil
	}
	d := v4Decoder{b: data, off: len(sh.ident)}
	if d.columns(b, sh.rows, sh.starts) != nil || b.checkRows(0, sh.rows) != nil {
		return nil
	}
	h.tMemo.count(shapeHit)
	return sh
}

// prepare runs a decoded batch through routing, label merging and
// series resolution, exposes the series on /metrics, and returns the
// router and the defaults it took.
func (h *HTTPSink) prepare(b *groupBatch) (router *Router, defaults Labels, err error) {
	if router = h.router.Load(); router != nil {
		if err := router.apply(b); err != nil {
			return nil, Labels{}, err
		}
	}
	if defaults, err = h.applyIngestLabels(b); err != nil {
		return nil, Labels{}, err
	}
	h.store.resolveGroups(b)
	for i := range b.groups {
		b.groups[i].series.expose()
	}
	return router, defaults, nil
}

// resolve prepares a decoded v4 batch into a fresh shape, data being
// the payload it came from.
func (h *HTTPSink) resolve(b *groupBatch, data []byte) (*ingestShape, error) {
	router, defaults, err := h.prepare(b)
	if err != nil {
		return nil, err
	}
	sh := &ingestShape{router: router, defaults: defaults, ident: bytes.Clone(data[:b.ident]), starts: b.starts, rows: len(b.times)}
	if router != nil {
		sh.routed = b.routed
	}
	sh.groups = make([]landGroup, len(b.groups))
	for i, g := range b.groups {
		sh.groups[i] = landGroup{series: g.series, lo: int32(g.lo), hi: int32(g.hi)}
	}
	return sh, nil
}

// rememberLocked memoizes a freshly landed v4 shape, unless an equal
// identity is already there, it is too short to key or it alone exceeds
// the bound; a memo that would outgrow its bound is reset first.
func (h *HTTPSink) rememberLocked(sh *ingestShape) {
	size := int(unsafe.Sizeof(*sh)) + identMemoPrefix + len(sh.ident) + 4*len(sh.starts) + 8*len(sh.routed) +
		len(sh.groups)*int(unsafe.Sizeof(landGroup{}))
	if len(sh.ident) < identMemoPrefix || size > maxIdentMemoBytes {
		return
	}
	key := string(sh.ident[:identMemoPrefix])
	for _, e := range h.identMemo[key] {
		if bytes.Equal(e.ident, sh.ident) {
			return
		}
	}
	if h.identMemoBytes+size > maxIdentMemoBytes {
		h.tMemo.count(shapeReset)
		h.identMemo = nil
	}
	if h.identMemo == nil {
		h.identMemo, h.identMemoBytes = map[string][]*ingestShape{}, 0
	}
	h.identMemo[key] = append(h.identMemo[key], sh)
	h.identMemoBytes += size
}

// observeIngest records per-source acceptance and, for records carrying
// a sent_at stamp, the end-to-end wire+queue latency and signed clock
// skew.  A far-future or ancient stamp lands in the histograms' edge
// buckets — clamped by construction, never rejected, never a panic.
func observeIngest[G any, P lander[G]](h *HTTPSink, groups []G, sentAts []float64) {
	var recv float64
	if h.now != nil {
		recv = float64(h.now().UnixNano()) / 1e9
	} else {
		recv = float64(time.Now().UnixNano()) / 1e9
	}
	var (
		lastSource string
		si         *sourceInstruments
	)
	for i := range groups {
		s, lo, hi := P(&groups[i]).land()
		if source := s.key.Source; si == nil || source != lastSource {
			si, lastSource = h.sourceInstr(source), source
		}
		if si == nil {
			return // not instrumented
		}
		si.samples.Add(uint64(hi - lo))
		for _, sentAt := range sentAts[lo:hi] {
			if sentAt > 0 {
				delta := recv - sentAt
				si.skew.Observe(delta)
				if delta < 0 {
					delta = 0 // a fast clock upstream is skew, not negative latency
				}
				si.wire.Observe(delta)
			}
		}
	}
}

// maxMergeCacheEntries bounds the per-sink merge memoization: a fleet
// has a handful of distinct label sets, so hitting the bound means a
// high-cardinality (or hostile) pusher — reset rather than grow.
const maxMergeCacheEntries = 1024

// applyIngestLabels screens each group's validated wire pairs against
// the receiver's default-merge cap and only then interns them, overlaying
// the defaults (sample wins per name) in one critical section per batch,
// memoized per incoming label set, and returns the defaults it merged.
// The screening runs before any interning and any store append, so a 400
// leaves no residue anywhere.
func (h *HTTPSink) applyIngestLabels(b *groupBatch) (Labels, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ingestLabels.Empty() {
		b.internLabels()
		return h.ingestLabels, nil
	}
	for i := range b.groups {
		if pairs := b.groups[i].pairs; mergedLabelCount(h.ingestLabels, pairs) > maxLabels {
			return Labels{}, fmt.Errorf("monitor: sample labels %q merged with the receiver defaults exceed the limit of %d labels", encodePairs(pairs), maxLabels)
		}
	}
	b.internLabels()
	for i := range b.groups {
		g := &b.groups[i]
		merged, ok := h.mergeCache[g.key.Labels]
		if !ok {
			merged = MergeLabels(h.ingestLabels, g.key.Labels)
			if h.mergeCache == nil || len(h.mergeCache) >= maxMergeCacheEntries {
				h.mergeCache = map[Labels]Labels{}
			}
			h.mergeCache[g.key.Labels] = merged
		}
		g.key.Labels = merged
	}
	return h.ingestLabels, nil
}

func (h *HTTPSink) handleHealth(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"status\":\"ok\",\"batches\":%d,\"ingested\":%d,\"uptime\":%q}\n",
		h.batches.Load(), h.ingested.Load(), time.Since(h.started).String())
}
