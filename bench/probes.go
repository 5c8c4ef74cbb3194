package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/monitor/cluster"
	"likwid/internal/telemetry"
)

// The probes are the traced run's timed direct calls: a layer that no
// wrapper can see from outside (a store append inside the scheduler, a
// ring lookup inside the cluster sink) is called directly, on the
// workload's own data shape, and timed.  They run after the measured
// phase, never inside it.

// timeOp runs op until it has taken at least 20 ms in all and returns
// the mean duration of one call in nanoseconds.
func timeOp(op func()) float64 {
	op() // warm
	n, total := 0, time.Duration(0)
	for total < 20*time.Millisecond {
		t0 := time.Now()
		op()
		total += time.Since(t0)
		n++
	}
	return float64(total) / float64(n)
}

// probeAppend times Store.AppendBatch of one batch, plain and under a
// WAL journal, per sample; and the WAL pipeline's own per-sample cost:
// the wall time from a journaled append until the writer has framed,
// written and fsynced it, less the append itself.
func probeAppend(dir string, batch []monitor.Sample) (plainNs, journaledNs, walUs float64) {
	// One round appends about half a WAL queue's worth: `reps` ticks of
	// the batch.  A round of a handful of samples would time one fsync
	// and one poll of the writer, not the per-sample cost.
	reps := 1
	if len(batch) < walChunk {
		reps = (walChunk + len(batch) - 1) / len(batch)
	}
	n := float64(len(batch) * reps)
	step := func(samples []monitor.Sample, round int) monitor.Batch {
		out := make([]monitor.Sample, 0, len(samples)*reps)
		for r := 0; r < reps; r++ {
			at := float64(round*reps+r+1) * tickSeconds
			for _, s := range samples {
				s.Time = at
				out = append(out, s)
			}
		}
		return monitor.Batch{Collector: "probe", Samples: out}
	}
	st := monitor.NewStore(0)
	round := 0
	st.AppendBatch(step(batch, round))
	var plainTotal time.Duration
	for plainTotal < 20*time.Millisecond {
		round++
		b := step(batch, round)
		t0 := time.Now()
		st.AppendBatch(b)
		plainTotal += time.Since(t0)
	}
	plainNs = float64(plainTotal) / float64(round) / n

	defer os.RemoveAll(dir)
	js := monitor.NewStore(0)
	node, err := openPersist(dir, js)
	if err != nil {
		return plainNs, 0, 0
	}
	defer node.pm.Close()
	round = 0
	js.AppendBatch(step(batch, round))
	node.quiet(int64(n))
	var appendTotal, quietTotal time.Duration
	rounds := 0
	for quietTotal < 50*time.Millisecond && rounds < 200 {
		round++
		b := step(batch, round)
		t0 := time.Now()
		js.AppendBatch(b)
		t1 := time.Now()
		node.quiet(int64(n) * int64(round+1))
		appendTotal += t1.Sub(t0)
		quietTotal += time.Since(t0)
		rounds++
	}
	journaledNs = float64(appendTotal) / float64(rounds) / n
	walUs = float64(quietTotal-appendTotal) / float64(rounds) / n / 1e3
	return plainNs, journaledNs, walUs
}

// probeRing times one consistent-hash owner lookup per sample key.
func probeRing(ring *cluster.Ring, samples []monitor.Sample) float64 {
	keys := make([]monitor.Key, len(samples))
	for i, s := range samples {
		keys[i] = s.Key()
	}
	var sink string
	ns := timeOp(func() {
		for _, k := range keys {
			sink = ring.LookupKey(k)
		}
	})
	_ = sink
	return ns / float64(len(keys))
}

// probeTelemetry times one registry snapshot and one SelfCollector
// tick over it, in microseconds.
func probeTelemetry(reg *telemetry.Registry) (snapshotUs, selfCollectUs float64) {
	snapshotUs = timeOp(func() { _ = reg.Snapshot() }) / 1e3
	sc := monitor.NewSelfCollector(reg, 0)
	selfCollectUs = timeOp(func() { _, _ = sc.Collect(context.Background()) }) / 1e3
	return snapshotUs, selfCollectUs
}

// probeIntern times Store.Intern of n never-seen keys one at a time —
// the path a receiver takes for every new series in a pushed batch —
// in microseconds per series.
func probeIntern(n int) float64 {
	st := monitor.NewStore(8)
	keys := make([]monitor.Key, n)
	for i := range keys {
		keys[i] = monitor.Key{Source: fmt.Sprintf("node%03d", i%100), Metric: fmt.Sprintf("m%03d", i/100), Scope: monitor.ScopeThread}
	}
	t0 := time.Now()
	for _, k := range keys {
		st.Intern(k)
	}
	return float64(time.Since(t0)) / 1e3 / float64(n)
}

// probeTier times the extra per-sample cost of compacting evicted raw
// points into retention tiers: appends into a one-point ring with tiers
// against appends into a one-point ring without.
func probeTier(tiers []monitor.Tier) float64 {
	const n = 20000
	run := func(st *monitor.Store) float64 {
		h := st.Intern(monitor.Key{Metric: "probe", Scope: monitor.ScopeNode})
		t := 0.0
		return timeOp(func() {
			for i := 0; i < n; i++ {
				t += 0.01
				h.Append(monitor.Point{Time: t, Value: float64(i & 7)})
			}
		}) / n
	}
	return run(monitor.NewStore(1, tiers...)) - run(monitor.NewStore(1))
}

// probeReads times the read path's direct calls on the terminal store:
// one 60-point window, and exact, wildcard and label selections.
func probeReads(cfg runConfig, st *monitor.Store) (windowUs, exactUs, wildUs, labelUs float64) {
	keys := st.Keys()
	if len(keys) == 0 {
		return
	}
	rng := cfg.rng(8000)
	pick := make([]monitor.Key, 64)
	for i := range pick {
		pick[i] = keys[rng.Intn(len(keys))]
	}
	var buf []monitor.Point
	i := 0
	next := func() monitor.Key { i++; return pick[i%len(pick)] }
	windowUs = timeOp(func() {
		k := next()
		p, _ := st.Latest(k)
		buf = st.WindowInto(k, p.Time-60*tickSeconds, -1, buf)
	}) / 1e3
	exactUs = timeOp(func() {
		k := next()
		_ = st.Select(monitor.Selector{Source: k.Source, Metric: k.Metric, QueryForm: true, Scope: k.Scope, ID: k.ID})
	}) / 1e3
	wildUs = timeOp(func() {
		k := next()
		_ = st.Select(monitor.Selector{Source: "*", Metric: k.Metric, QueryForm: true, Scope: k.Scope, ID: k.ID})
	}) / 1e3
	var labelled []monitor.Key
	for _, k := range pick {
		if !k.Labels.Empty() {
			labelled = append(labelled, k)
		}
	}
	if len(labelled) > 0 {
		j := 0
		labelUs = timeOp(func() {
			j++
			k := labelled[j%len(labelled)]
			p := k.Labels.Pairs()
			_ = st.Select(monitor.Selector{Source: "*", Metric: k.Metric, QueryForm: true, Scope: k.Scope, ID: k.ID,
				Labels: []monitor.Label{p[len(p)-1]}})
		}) / 1e3
	}
	return
}
