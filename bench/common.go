package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// runConfig is what one workload run is given.  The program under test
// sees none of it: it only ever receives the inputs generated from it.
type runConfig struct {
	seed    int64
	seconds float64 // length of the measured phase (or its work scale)
	short   bool    // self-test sizes: fixed op counts, tiny fleets
	dir     string  // scratch directory for WAL and snapshot state
	// now pins the sent_at wall clock; nil is time.Now.  The self-test
	// pins it so two same-seed runs put identical bytes on the wire.
	now func() time.Time
	tr  *tracer // nil = tracing off
}

func (c runConfig) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(c.seed*1_000_003 + stream))
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling thread's CPU time so far.  Unlike a wall
// clock around a call it does not grow while a neighbour holds the core,
// so it is what may be subtracted from the process's CPU time.  Two
// readings compare only if the goroutine stayed on one thread between
// them.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func absInt(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// ---- registry reading -----------------------------------------------------

// regSnap indexes one registry snapshot by metric name; labelled
// variants of a name are summed, which is what conservation checks and
// per-sample costs want.
type regSnap struct {
	value map[string]float64
	count map[string]uint64
	sum   map[string]float64
}

func snapRegistry(reg *telemetry.Registry) regSnap {
	out := regSnap{value: map[string]float64{}, count: map[string]uint64{}, sum: map[string]float64{}}
	if reg == nil {
		return out
	}
	for _, m := range reg.Snapshot().Metrics {
		out.value[m.Name] += m.Value
		out.count[m.Name] += m.Count
		out.sum[m.Name] += m.Sum
	}
	return out
}

// ---- transport ------------------------------------------------------------

// hopStats counts what one client put on the wire.
type hopStats struct {
	posts     atomic.Int64
	bytes     atomic.Int64
	non2xx    atomic.Int64
	conns     atomic.Int64 // connections obtained (traced runs only)
	reused    atomic.Int64 // of which reused
	mu        sync.Mutex
	rttMillis []float64 // traced runs only
	// sinceWriteMs is, per POST, the time from the start of the sink
	// Write it belongs to until it returned: what a sample in that POST
	// waited on this hop (a later shard's POST waits for the earlier).
	sinceWriteMs []float64
}

// benchTransport is the RoundTripper every push client in the benchmark
// rides.  It resolves the fleet's fixed fake host names to the
// listeners' real ephemeral addresses — ring membership is keyed by
// host:port, so fixed names keep shard ownership, POST counts and wire
// bytes identical across runs and machines — and counts request-body
// bytes per hop.  With a tracer it also records one span per POST and
// whether the connection was reused.
type benchTransport struct {
	base  *http.Transport
	stats *hopStats
	tr    *tracer
	node  string
	layer string // "push" on hop 1, "forward" on hop 2
	// cur is the journey the calling sink is working on; the wrapping
	// Sink sets it before each inner Write (same goroutine as the POST).
	cur      atomic.Int64
	curStart atomic.Int64 // UnixNano of that Write's start
	// onStart observes each POST's start (forward.wait needs it).
	onStart func(trace int64, at time.Time)
}

// hostMap resolves fake fleet host names to real listener addresses.
type hostMap struct {
	mu sync.RWMutex
	m  map[string]string
}

func (h *hostMap) set(fake, real string) {
	h.mu.Lock()
	if h.m == nil {
		h.m = map[string]string{}
	}
	h.m[fake] = real
	h.mu.Unlock()
}

func (h *hostMap) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	h.mu.RLock()
	real, ok := h.m[addr]
	h.mu.RUnlock()
	if ok {
		addr = real
	}
	var d net.Dialer
	return d.DialContext(ctx, network, addr)
}

func newTransport(hosts *hostMap, stats *hopStats, tr *tracer, node, layer string) *benchTransport {
	return &benchTransport{
		base:  &http.Transport{DialContext: hosts.dial, MaxIdleConnsPerHost: 4},
		stats: stats, tr: tr, node: node, layer: layer,
	}
}

func (t *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	isPost := req.Method == http.MethodPost
	if isPost {
		t.stats.posts.Add(1)
		t.stats.bytes.Add(req.ContentLength)
	}
	if t.tr == nil || !isPost {
		resp, err := t.base.RoundTrip(req)
		if isPost && (err != nil || resp.StatusCode/100 != 2) {
			t.stats.non2xx.Add(1)
		}
		return resp, err
	}
	ct := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		t.stats.conns.Add(1)
		if info.Reused {
			t.stats.reused.Add(1)
		}
	}}
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), ct))
	start := time.Now()
	trace := t.cur.Load()
	if t.onStart != nil {
		t.onStart(trace, start)
	}
	resp, err := t.base.RoundTrip(req)
	dur := time.Since(start)
	if err != nil || resp.StatusCode/100 != 2 {
		t.stats.non2xx.Add(1)
	}
	t.stats.mu.Lock()
	t.stats.rttMillis = append(t.stats.rttMillis, float64(dur)/1e6)
	t.stats.sinceWriteMs = append(t.stats.sinceWriteMs, float64(start.Add(dur).UnixNano()-t.curStart.Load())/1e6)
	t.stats.mu.Unlock()
	t.tr.add(span{Layer: t.layer, Name: "post", Node: t.node, Trace: trace,
		Parent: t.layer + ".write", Start: start, Dur: dur})
	return resp, err
}

func (t *benchTransport) close() { t.base.CloseIdleConnections() }

// ---- sink wrappers --------------------------------------------------------

// spanSink wraps a Sink the benchmark hands to a Dispatcher: it times
// each Write, tells the transport which journey the POSTs inside belong
// to, and lets the workload observe the write.
type spanSink struct {
	inner monitor.Sink
	tr    *tracer
	node  string
	layer string
	name  string
	tp    *benchTransport // the client the POSTs inside ride
	// traceOf folds a batch into its journey id.
	traceOf func(b monitor.Batch) int64
	// onWrite observes every write (both traced and untraced runs).
	onWrite func(b monitor.Batch, start time.Time, dur time.Duration)
}

func (s *spanSink) Name() string { return s.inner.Name() }

func (s *spanSink) Write(b monitor.Batch) error {
	id := s.traceOf(b)
	start := time.Now()
	s.tp.cur.Store(id)
	s.tp.curStart.Store(start.UnixNano())
	err := s.inner.Write(b)
	dur := time.Since(start)
	if s.onWrite != nil {
		s.onWrite(b, start, dur)
	}
	s.tr.add(span{Layer: s.layer, Name: s.name, Node: s.node, Trace: id, Start: start, Dur: dur})
	return err
}

func (s *spanSink) Close() error { return s.inner.Close() }

// ---- generated series -----------------------------------------------------

// seriesGen is the seeded value generator shared by the fleet
// workloads: quantised values that step slowly, the shape hardware
// counters rolled into rates really have.  value is a pure function of
// (series, tick), so the oracle at the far end of the journey can
// recompute what the generator sent.
type seriesGen struct {
	base   []float64
	period []int
	phase  []int
}

func newSeriesGen(rng *rand.Rand, n int) *seriesGen {
	g := &seriesGen{base: make([]float64, n), period: make([]int, n), phase: make([]int, n)}
	for i := 0; i < n; i++ {
		g.base[i] = float64(rng.Intn(8000)) / 8
		g.period[i] = 20 + rng.Intn(180)
		g.phase[i] = rng.Intn(200)
	}
	return g
}

func (g *seriesGen) value(series, tick int) float64 {
	return g.base[series] + float64((tick+g.phase[series])/g.period[series])*0.125
}

// mustLabels interns a label set the benchmark itself chose.
func mustLabels(m map[string]string) monitor.Labels {
	ls, err := monitor.MakeLabels(m)
	if err != nil {
		panic(err) // a bug in the benchmark's own constants
	}
	return ls
}

// ---- files ----------------------------------------------------------------

// copyDir copies a state directory file by file while its owner is
// still running, which leaves the copy as a SIGKILL would have left the
// original: whatever reached the files, nothing the process still held.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// oracle collects correctness failures.  A failed oracle is a failed
// run, not a metric.
type oracle struct {
	mu    sync.Mutex
	fails []string
}

func (o *oracle) failf(format string, args ...any) {
	o.mu.Lock()
	if len(o.fails) < 32 {
		o.fails = append(o.fails, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

func (o *oracle) check(ok bool, format string, args ...any) {
	if !ok {
		o.failf(format, args...)
	}
}

func (o *oracle) failures() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.fails...)
}
