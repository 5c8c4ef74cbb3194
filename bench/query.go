package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"likwid/internal/alert"
	"likwid/internal/derive"
	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// queryShape sizes the preloaded receiver of query-mixed.
type queryShape struct {
	sources, metrics, ids, points int
	writeSeries                   int // series the live pusher extends per tick
}

func (s queryShape) series() int { return s.sources * s.metrics * s.ids }

func queryShapeFor(cfg runConfig) queryShape {
	if cfg.short {
		return queryShape{sources: 8, metrics: 5, ids: 2, points: 16, writeSeries: 40}
	}
	return queryShape{sources: 100, metrics: 25, ids: 4, points: 512, writeSeries: 500}
}

// Both engines run on their own one-second cadence beside the reads: a
// wildcard alert rule with one instance per source, and a recorded
// rule summing a metric by job across the fleet.
const queryAlertRules = `fleet_hot: avg(*/metric_00, thread, 0, 5s) > 1e15 for 10s every 1s`

const queryDeriveRules = `job_sum = sum(metric_01, thread) by (job) over 5s every 1s`

type queryEnv struct {
	cfg   runConfig
	shape queryShape
	reg   *telemetry.Registry
	store *monitor.Store
	http  *monitor.HTTPSink
	or    *oracle

	tmpl []monitor.Sample // every series once, in preload order
	gen  *seriesGen

	hosts *hostMap
	stats *hopStats
	tp    *benchTransport
	push  *monitor.PushSink

	alert *alert.Engine
	deriv *derive.Engine

	hookMu  sync.Mutex
	arrived map[int]time.Time // live tick -> accepted at the receiver
	hookN   atomic.Int64

	lastRead *readStats
}

func setupQueryMixed(cfg runConfig) (env, error) {
	e := &queryEnv{cfg: cfg, shape: queryShapeFor(cfg), reg: telemetry.New(), or: &oracle{},
		hosts: &hostMap{}, stats: &hopStats{}, arrived: map[int]time.Time{}}
	sh := e.shape
	e.store = monitor.NewStore(sh.points + int(cfg.seconds/tickSeconds) + 64)
	e.store.Instrument(e.reg)
	for s := 0; s < sh.sources; s++ {
		labels := mustLabels(map[string]string{"job": fleetJobs[s%len(fleetJobs)]})
		for m := 0; m < sh.metrics; m++ {
			for id := 0; id < sh.ids; id++ {
				e.tmpl = append(e.tmpl, monitor.Sample{
					Source: fmt.Sprintf("node%03d", s), Metric: fmt.Sprintf("metric_%02d", m),
					Scope: monitor.ScopeThread, ID: id, Labels: labels,
				})
			}
		}
	}
	e.gen = newSeriesGen(cfg.rng(300), len(e.tmpl))
	// AppendBatch copies each point into its ring, so one buffer serves
	// every preloaded tick.
	last := monitor.Batch{Collector: "preload", Samples: make([]monitor.Sample, len(e.tmpl))}
	copy(last.Samples, e.tmpl)
	for t := 0; t < sh.points; t++ {
		last.Time = timeOf(t)
		for i := range last.Samples {
			last.Samples[i].Time = last.Time
			last.Samples[i].Value = e.gen.value(i, t)
		}
		e.store.AppendBatch(last)
	}
	h, err := monitor.NewHTTPSink("127.0.0.1:0", e.store)
	if err != nil {
		return nil, err
	}
	e.http = h
	h.Instrument(e.reg)
	// /metrics serves the sink's latest-value snapshot, which only a
	// Write or an ingest fills: hand it the newest preloaded tick.
	if err := h.Write(last); err != nil {
		return nil, err
	}
	h.SetForward(func(b monitor.Batch) {
		now := time.Now()
		e.hookN.Add(int64(len(b.Samples)))
		e.hookMu.Lock()
		if len(b.Samples) > 0 {
			if t := tickOf(b.Samples[0].Time); t >= 0 {
				if _, seen := e.arrived[t]; !seen {
					e.arrived[t] = now
				}
			}
		}
		e.hookMu.Unlock()
	})
	e.hosts.set("recv.bench:80", h.Addr())
	e.tp = newTransport(e.hosts, e.stats, cfg.tr, "pusher", "push")
	e.push, err = monitor.NewPushSink(monitor.PushOptions{
		URL:    "http://recv.bench:80/ingest",
		Format: monitor.WireJSON,
		Client: &http.Client{Transport: e.tp, Timeout: 10 * time.Second},
		Now:    cfg.now,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	arules, err := alert.ParseRules(queryAlertRules)
	if err != nil {
		return nil, err
	}
	if e.alert, err = alert.NewEngine(alert.Options{Store: e.store, Telemetry: e.reg}, arules); err != nil {
		return nil, err
	}
	drules, _, err := derive.ParseFile(queryDeriveRules)
	if err != nil {
		return nil, err
	}
	if e.deriv, err = derive.NewEngine(derive.Options{Store: e.store, Telemetry: e.reg}, drules); err != nil {
		return nil, err
	}
	return e, nil
}

// tick builds tick t's samples for the first n series.
func (e *queryEnv) tick(t, n int) []monitor.Sample {
	out := make([]monitor.Sample, n)
	copy(out, e.tmpl[:n])
	at := timeOf(t)
	for i := range out {
		out[i].Time = at
		out[i].Value = e.gen.value(i, t)
	}
	return out
}

func (e *queryEnv) oracle() *oracle { return e.or }

func (e *queryEnv) terminal() terminal {
	return terminal{store: e.store, addr: e.http.Addr(), lines: e.shape.series()}
}

func (e *queryEnv) close() {
	if e.http != nil {
		_ = e.http.Close()
		e.http = nil
	}
	if e.tp != nil {
		e.tp.close()
	}
}

func (e *queryEnv) main(cfg runConfig) (*mainStats, error) {
	sh := e.shape
	plan := buildReadPlan(cfg.rng(6100), e.terminal(), 512, 64, 64)
	// The generator knows what a fan-out must return: one series per
	// source, and a job slice a quarter of them.
	for _, q := range plan.queries[qFanout] {
		e.or.check(q.wantSeries == sh.sources, "fan-out plan expects %d series, the fleet has %d sources", q.wantSeries, sh.sources)
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	liveTicks, maxBlocks := int(cfg.seconds/tickSeconds), 0
	if cfg.short {
		liveTicks, maxBlocks = 6, 1
		dur = time.Duration(liveTicks) * tickInterval
	}

	ctx, cancel := context.WithCancel(context.Background())
	var engines sync.WaitGroup
	engines.Add(2)
	go func() { defer engines.Done(); e.alert.Run(ctx) }()
	go func() { defer engines.Done(); e.deriv.Run(ctx) }()

	t0, cpu0 := time.Now(), cpuTime()
	var m0 memCounters
	m0.read()
	sampler := startSampler(10*tickInterval, e.hookN.Load, nil)
	// The live pusher: open loop, one tick of writeSeries samples every
	// 50 ms in the JSON wire format, timed from when each tick was due.
	type tickRec struct {
		due   time.Time
		start time.Time
		dur   time.Duration
	}
	recs := make([]tickRec, 0, liveTicks)
	var pushErr error
	var pusher sync.WaitGroup
	pusher.Add(1)
	go func() {
		defer pusher.Done()
		batches := make([]monitor.Batch, liveTicks)
		for i := range batches {
			t := sh.points + i
			batches[i] = monitor.Batch{Collector: "live", Time: timeOf(t), Samples: e.tick(t, sh.writeSeries)}
		}
		start := time.Now()
		for i := range batches {
			due := start.Add(time.Duration(i+1) * tickInterval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			e.tp.cur.Store(int64(i))
			w0 := time.Now()
			if err := e.push.Write(batches[i]); err != nil && pushErr == nil {
				pushErr = err
			}
			w1 := time.Now()
			recs = append(recs, tickRec{due, w0, w1.Sub(w0)})
			cfg.tr.add(span{Layer: "push", Name: "write", Node: "pusher", Trace: int64(i), Start: w0, Dur: w1.Sub(w0)})
		}
		if err := e.push.Flush(); err != nil && pushErr == nil {
			pushErr = err
		}
	}()
	rs := runReads(cfg, plan, 2, dur, maxBlocks, e.or)
	pusher.Wait()
	wall, cpu := time.Since(t0), cpuTime()-cpu0
	cpuWin, rateWin := sampler.stop()
	var m1 memCounters
	m1.read()
	cancel()
	engines.Wait()
	if pushErr != nil {
		return nil, fmt.Errorf("live pusher: %w", pushErr)
	}

	ms := &mainStats{wall: wall, cpu: cpu, mem: m1.sub(m0), read: rs, cpuUsWin: cpuWin, rateWin: rateWin}
	e.lastRead = rs
	sent := int64(liveTicks * sh.writeSeries)
	e.hookMu.Lock()
	ms.delivered = e.hookN.Load()
	var lateMs []float64
	for i, r := range recs {
		lateMs = append(lateMs, float64(r.start.Sub(r.due))/1e6)
		ms.tickUs = append(ms.tickUs, float64(r.dur)/1e3)
		if at, ok := e.arrived[sh.points+i]; ok {
			ms.freshMs = append(ms.freshMs, float64(at.Sub(r.due))/1e6)
		}
	}
	e.hookMu.Unlock()
	ms.generated = sent
	ms.samples = ms.delivered
	ms.wireBytes, ms.wireSamples = e.stats.bytes.Load(), ms.delivered
	ms.posts = e.stats.posts.Load()
	ms.attempted = sent + ms.posts
	ms.failed = (sent - ms.delivered) + e.stats.non2xx.Load()
	// Two closed-loop readers keep both cores busy by design, so single
	// pusher ticks slip by a scheduler quantum or two; freshness is timed
	// from the due time and carries that.  The run is invalid only when
	// the pusher no longer holds its schedule at all.
	if late := median(lateMs); late > float64(tickInterval/time.Millisecond)/2 && !cfg.short {
		ms.invalid = fmt.Sprintf("live pusher ran %.1f ms late at the median, over half the %v interval", late, tickInterval)
	}
	// Every pushed point must be readable from the store the queries hit.
	bad := 0
	for i := 0; i < sh.writeSeries; i++ {
		pts := e.store.Window(e.tmpl[i].Key(), timeOf(sh.points), -1)
		ok := len(pts) == liveTicks
		for t := 0; ok && t < liveTicks; t++ {
			ok = pts[t].Time == timeOf(sh.points+t) && pts[t].Value == e.gen.value(i, sh.points+t)
		}
		if !ok {
			bad++
		}
	}
	e.or.check(bad == 0, "%d live series differ from what the pusher sent", bad)

	snap := snapRegistry(e.reg)
	ms.rejected = int64(snap.value["likwid_ingest_rejected_total"])
	ms.layer = map[string]float64{
		"sched.gen_late_p99_ms": quantile(lateMs, 0.99),
		"query.errors":          float64(rs.failed),
		"query.queries_per_s":   rs.perSecond,
		"query.exact_p50_ms":    rs.p50[qExact],
		"query.exact_p99_ms":    quantile(rs.lat[qExact], 0.99),
		"ingest.rejected":       float64(ms.rejected),
		"push.posts":            float64(ms.posts),
	}
	if n := rs.attempted - rs.failed; n > 0 {
		ms.layer["query.bytes_per_response"] = float64(rs.bytes) / float64(n)
		ms.layer["query.points_per_s"] = float64(rs.points) / rs.wall.Seconds()
	}
	if acc := snap.value["likwid_ingest_accepted_total"]; acc > 0 {
		ms.layer["ingest.json_us_per_sample"] = (snap.sum["likwid_ingest_decode_seconds"] + snap.sum["likwid_ingest_append_seconds"]) * 1e6 / acc
	}
	if n := snap.count["likwid_alert_eval_seconds"]; n > 0 {
		ms.layer["alert.eval_us"] = snap.sum["likwid_alert_eval_seconds"] * 1e6 / float64(n)
	}
	if n := snap.count["likwid_derive_eval_seconds"]; n > 0 {
		ms.layer["derive.eval_us"] = snap.sum["likwid_derive_eval_seconds"] * 1e6 / float64(n)
	}
	ms.layer["alert.resolve_hit_frac"] = hitFrac(e.reg, "likwid_alert_resolve_total")
	ms.layer["derive.resolve_hit_frac"] = hitFrac(e.reg, "likwid_derive_resolve_total")
	if cfg.tr != nil {
		var qBusy float64
		for k := range rs.lat {
			for _, v := range rs.lat[k] {
				qBusy += v
			}
		}
		cfg.tr.addBusy("query", time.Duration(qBusy*1e6))
		cfg.tr.addBusy("ingest", time.Duration((snap.sum["likwid_ingest_decode_seconds"]+snap.sum["likwid_ingest_append_seconds"])*1e9))
		cfg.tr.addBusy("alert", time.Duration(snap.sum["likwid_alert_eval_seconds"]*1e9))
		cfg.tr.addBusy("derive", time.Duration(snap.sum["likwid_derive_eval_seconds"]*1e9))
		var write time.Duration
		for _, r := range recs {
			write += r.dur
		}
		e.stats.mu.Lock()
		var rtt float64
		for _, v := range e.stats.rttMillis {
			rtt += v
		}
		ms.layer["push.post_rtt_p50_ms"] = median(e.stats.rttMillis)
		e.stats.mu.Unlock()
		cfg.tr.addBusy("push", write-time.Duration(rtt*1e6))
		if c := e.stats.conns.Load(); c > 0 {
			ms.layer["push.conn_reuse_frac"] = float64(e.stats.reused.Load()) / float64(c)
		}
	}
	return ms, nil
}

func (e *queryEnv) probes(cfg runConfig, ms *mainStats) {
	l := ms.layer
	l["store.window_us"], l["index.select_exact_us"], l["index.select_wildcard_us"], l["index.select_labels_us"] = probeReads(cfg, e.store)
	n := 10000
	if cfg.short {
		n = 200
	}
	l["store.intern_new_us_per_series"] = probeIntern(n)
	l["telemetry.snapshot_us"], l["telemetry.self_collect_us"] = probeTelemetry(e.reg)
	if rs := e.lastRead; rs != nil {
		// Every exact query resolves its key through the index and cuts
		// one window; a fan-out or label query selects once and cuts one
		// window per matched series.
		idx := l["index.select_exact_us"]*float64(len(rs.lat[qExact])) +
			l["index.select_wildcard_us"]*float64(len(rs.lat[qFanout])) +
			l["index.select_labels_us"]*float64(len(rs.lat[qLabel]))
		cfg.tr.addBusy("index", time.Duration(idx*1e3))
		windows := float64(len(rs.lat[qExact])) + float64(e.shape.sources)*float64(len(rs.lat[qFanout])) +
			float64(e.shape.sources/len(fleetJobs))*float64(len(rs.lat[qLabel]))
		cfg.tr.addBusy("store", time.Duration(l["store.window_us"]*1e3*windows))
	}
}
