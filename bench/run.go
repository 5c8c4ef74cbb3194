package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"likwid/internal/monitor"
)

// env is one built workload: set-up has run, the measured phase has not.
type env interface {
	// main runs the measured phase.
	main(cfg runConfig) (*mainStats, error)
	// terminal is what the measured phase leaves behind: the store the
	// epilogues read back and replicate, and the HTTP address serving it.
	terminal() terminal
	// probes runs the traced run's timed direct calls into the layers
	// this workload exercises, filling per-layer metrics and busy time.
	probes(cfg runConfig, ms *mainStats)
	oracle() *oracle
	close()
}

// terminal describes the store a workload ends with.
type terminal struct {
	store *monitor.Store
	addr  string // host:port of the HTTPSink serving the store
	// lines is how many series the sink's /metrics exposes.
	lines int
}

// memCounters is the slice of runtime.MemStats the benchmark reports.
type memCounters struct {
	mallocs    uint64
	allocBytes uint64
	pauseNs    uint64
}

func (m *memCounters) read() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mallocs, m.allocBytes, m.pauseNs = ms.Mallocs, ms.TotalAlloc, ms.PauseTotalNs
}

func (m memCounters) sub(o memCounters) memCounters {
	return memCounters{m.mallocs - o.mallocs, m.allocBytes - o.allocBytes, m.pauseNs - o.pauseNs}
}

// mainStats is what a measured phase reports.  Fields a workload's
// phase does not exercise stay zero and are filled from an epilogue.
type mainStats struct {
	wall    time.Duration
	cpu     time.Duration // process CPU over the phase, generator-side exclusions already taken
	mem     memCounters
	samples int64 // samples completed inside the measured window

	generated, delivered int64
	freshMs, tickUs      []float64 // in time order
	// Per-window CPU microseconds per sample and samples per second
	// (see windows.go); empty when the phase was too short to window.
	cpuUsWin, rateWin []float64

	wireBytes, wireSamples int64
	walBytes, walRecords   int64
	walDropped             int64
	posts                  int64
	fwdDropped             int64
	dispDropped            int64
	rejected               int64

	attempted, failed int64

	read      *readStats // query-mixed: the measured phase is the read-back
	snapshotS []float64  // recover-restart: one per round
	recoverS  []float64  // recover-restart: one per recovery of the image

	// invalid is the generator-honesty verdict; "" means valid.
	invalid string
	layer   map[string]float64
}

// cpuPerSample is the phase's CPU microseconds per completed sample:
// the quiet decile across windows, or the whole-phase quotient for a phase
// too short to window.
func (ms *mainStats) cpuPerSample() float64 {
	whole := 0.0
	if ms.samples > 0 {
		whole = float64(ms.cpu) / 1e3 / float64(ms.samples)
	}
	return windowedOr(ms.cpuUsWin, false, whole)
}

// outcome is one finished workload run.
type outcome struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int64
	Failed    int64
	EndToEnd  map[string]float64 // untraced run
	PerLayer  map[string]float64 // traced run
	Counts    map[string]int     // sample count behind each end-to-end figure
	Failures  []string           // failed oracles

	// Determinism fingerprint of the untraced measured phase, and the
	// traced pass's spans (self-test).
	samples, posts, wireBytes int64
	tracer                    *tracer
}

// A run builds its workload several times and reports the median
// set-up time, so one slow listen or one cold page cache does not
// decide setup_s: at least setupMin builds, and up to setupMax while
// they have used less than setupBudget in all.
const (
	setupMin    = 3
	setupMax    = 100
	setupBudget = 2 * time.Second
)

var setups = map[string]func(runConfig) (env, error){
	"fleet-steady":    setupSteady,
	"fleet-catchup":   setupCatchup,
	"agent-node":      setupAgentNode,
	"query-mixed":     setupQueryMixed,
	"recover-restart": setupRecover,
}

// runWorkload builds the workload (several times), runs its measured
// phase with tracing off, then the two epilogues over what it left
// behind, and assembles every end-to-end metric.
func runWorkload(name string, cfg runConfig) (*outcome, error) {
	setup, ok := setups[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	base := cfg.dir
	var setupS []float64
	var spent time.Duration
	var e env
	for i := 0; ; i++ {
		cfg.dir = filepath.Join(base, fmt.Sprintf("setup%d", i))
		runtime.GC() // each build starts from the same heap
		t0 := time.Now()
		built, err := setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
		spent += time.Since(t0)
		setupS = append(setupS, time.Since(t0).Seconds())
		n := len(setupS)
		if cfg.short || n == setupMax || (n >= setupMin && spent > setupBudget) {
			e = built
			break
		}
		built.close()
		_ = os.RemoveAll(cfg.dir)
	}
	defer e.close()

	ms, err := e.main(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	out := &outcome{
		Workload: name, Seed: cfg.seed,
		EndToEnd: map[string]float64{}, Counts: map[string]int{},
		samples: ms.samples, posts: ms.posts, wireBytes: ms.wireBytes,
	}
	or := e.oracle()
	if ms.invalid != "" {
		or.failf("run invalid: %s", ms.invalid)
	}

	term := e.terminal()
	rb := ms.read
	if rb == nil {
		rb = readback(cfg, term, or)
	}
	cfg.dir = filepath.Join(base, "replica")
	rp, err := replicate(cfg, term.store, or)
	if err != nil {
		return nil, fmt.Errorf("%s replicate: %w", name, err)
	}
	assemble(out, name, setupS, ms, rb, rp)
	out.Attempted = ms.attempted + rb.attempted + rp.attempted
	out.Failed = ms.failed + rb.failed + rp.failed
	out.Failures = or.failures()
	out.Correct = len(out.Failures) == 0 && out.Failed == 0
	return out, nil
}

// assemble picks each end-to-end metric from the phase sourceOf names.
func assemble(out *outcome, name string, setupS []float64, ms *mainStats, rb *readStats, rp *replicaStats) {
	e := out.EndToEnd
	e["setup_s"] = median(setupS)
	out.Counts["setup_s"] = len(setupS)
	e["freshness_p50_ms"] = chunkedQuantile(ms.freshMs, 0.5, 10)
	e["freshness_p90_ms"] = chunkedQuantile(ms.freshMs, 0.9, 20)
	out.Counts["freshness_p50_ms"] = len(ms.freshMs)
	out.Counts["freshness_p90_ms"] = len(ms.freshMs)
	e["cpu_us_per_sample"] = ms.cpuPerSample()
	if ms.wall > 0 {
		e["samples_per_s"] = windowedOr(ms.rateWin, true, float64(ms.samples)/ms.wall.Seconds())
	}
	out.Counts["cpu_us_per_sample"] = len(ms.cpuUsWin)
	out.Counts["samples_per_s"] = len(ms.rateWin)
	if sourceOf(name, "wire_bytes_per_sample") == fromMain && ms.wireSamples > 0 {
		e["wire_bytes_per_sample"] = float64(ms.wireBytes) / float64(ms.wireSamples)
	} else {
		e["wire_bytes_per_sample"] = rp.wireBytesPerSample
	}
	if sourceOf(name, "disk_bytes_per_sample") == fromMain && ms.walRecords > 0 {
		e["disk_bytes_per_sample"] = float64(ms.walBytes) / float64(ms.walRecords)
	} else {
		e["disk_bytes_per_sample"] = rp.diskBytesPerSample
	}
	if ms.generated > 0 {
		e["delivered_frac"] = float64(ms.delivered) / float64(ms.generated)
	}
	e["tick_p50_us"] = chunkedQuantile(ms.tickUs, 0.5, 10)
	out.Counts["tick_p50_us"] = len(ms.tickUs)
	e["queries_per_s"] = rb.perSecond
	e["query_exact_p50_ms"] = rb.p50[qExact]
	e["query_fanout_p50_ms"] = rb.p50[qFanout]
	e["scrape_p50_ms"] = rb.p50[qScrape]
	out.Counts["queries_per_s"] = rb.n()
	out.Counts["query_exact_p50_ms"] = len(rb.lat[qExact])
	out.Counts["query_fanout_p50_ms"] = len(rb.lat[qFanout])
	out.Counts["scrape_p50_ms"] = len(rb.lat[qScrape])
	snaps, recs := rp.snapshotS, rp.recoverS
	if sourceOf(name, "snapshot_s") == fromMain {
		snaps, recs = ms.snapshotS, ms.recoverS
	}
	e["snapshot_s"], e["recover_s"] = quietQuantile(snaps, false), quietQuantile(recs, false)
	out.Counts["snapshot_s"], out.Counts["recover_s"] = len(snaps), len(recs)
	e["peak_rss_mb"] = peakRSSMB()
}

// runTraced is the -trace 1 run: the measured phase once untraced and
// once traced at identical settings, each half as long as -seconds.  The traced pass keeps its spans
// in memory, writes them out, derives every per-layer metric and
// reports the traced-minus-untraced CPU cost as trace_overhead_frac.
func runTraced(name string, cfg runConfig, tracePath string) (*outcome, error) {
	setup, ok := setups[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	base := cfg.dir
	// Two passes in the time of one run: the driver allows a traced run
	// no longer than an untraced one.
	cfg.seconds /= 2
	pass := func(tr *tracer, sub string) (*mainStats, env, error) {
		c := cfg
		c.tr = tr
		c.dir = filepath.Join(base, sub)
		e, err := setup(c)
		if err != nil {
			return nil, nil, err
		}
		ms, err := e.main(c)
		if err != nil {
			e.close()
			return nil, nil, err
		}
		return ms, e, nil
	}
	plain, e0, err := pass(nil, "untraced")
	if err != nil {
		return nil, fmt.Errorf("%s untraced pass: %w", name, err)
	}
	e0.close()
	tr := newTracer()
	ms, e, err := pass(tr, "traced")
	if err != nil {
		return nil, fmt.Errorf("%s traced pass: %w", name, err)
	}
	defer e.close()
	cfg.tr = tr
	or := e.oracle()
	out := &outcome{Workload: name, Seed: cfg.seed, PerLayer: map[string]float64{}, Counts: map[string]int{},
		samples: plain.samples, posts: plain.posts, wireBytes: plain.wireBytes, tracer: tr}
	for _, d := range perLayer {
		out.PerLayer[d.Name] = 0
	}
	if ms.layer == nil {
		ms.layer = map[string]float64{}
	}
	e.probes(cfg, ms)
	for k, v := range ms.layer {
		if _, known := out.PerLayer[k]; !known {
			or.failf("workload emitted per-layer metric %q that metrics.go does not list", k)
			continue
		}
		out.PerLayer[k] = v
	}
	if ms.samples > 0 {
		out.PerLayer["proc.allocs_per_sample"] = float64(ms.mem.mallocs) / float64(ms.samples)
		out.PerLayer["proc.alloc_bytes_per_sample"] = float64(ms.mem.allocBytes) / float64(ms.samples)
	}
	out.PerLayer["proc.gc_pause_ms"] = float64(ms.mem.pauseNs) / 1e6
	if a, b := plain.cpuPerSample(), ms.cpuPerSample(); a > 0 && b > 0 {
		out.PerLayer["trace_overhead_frac"] = (b - a) / a
	}
	for l, share := range tr.busyShares() {
		out.PerLayer["busy."+l] = share
	}
	if tracePath != "" {
		if err := tr.write(tracePath); err != nil {
			return nil, err
		}
	}
	out.Attempted = ms.attempted
	out.Failed = ms.failed
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	out.Failures = or.failures()
	out.Correct = len(out.Failures) == 0 && out.Failed == 0
	return out, nil
}
