package main

import (
	"math"
	"sort"

	"likwid/internal/stats"
)

// metricDef names one reported number.  Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.  Gated
// marks the end-to-end metrics BENCHMARK.json lists, the ones the
// driver holds every later change to; the rest are measured, printed and
// kept in the trajectory files all the same, but moved too much between
// two runs of the same code on a small shared VM to carry a gate there.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Gated  bool
}

// The end-to-end metrics.  Every workload reports every one of them:
// from its measured phase where that phase exercises the path, otherwise
// from the read-back or replicate epilogue run over the store the
// workload leaves behind (see sourceOf).  bench_test.go pins the gated
// ones, in this order, to BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, true},
	{"freshness_p50_ms", "ms", "lower", 0.25, true},
	{"freshness_p90_ms", "ms", "lower", 0.25, false},
	{"cpu_us_per_sample", "us", "lower", 0.25, true},
	{"samples_per_s", "1/s", "higher", 0.25, false},
	{"wire_bytes_per_sample", "B", "lower", 0.1, true},
	{"disk_bytes_per_sample", "B", "lower", 0.02, true},
	{"delivered_frac", "frac", "higher", 0.001, true},
	{"tick_p50_us", "us", "lower", 0.25, false},
	{"queries_per_s", "1/s", "higher", 0.25, false},
	{"query_exact_p50_ms", "ms", "lower", 0.25, false},
	{"query_fanout_p50_ms", "ms", "lower", 0.25, false},
	{"scrape_p50_ms", "ms", "lower", 0.25, false},
	{"snapshot_s", "s", "lower", 0.25, false},
	{"recover_s", "s", "lower", 0.25, false},
	{"peak_rss_mb", "MB", "lower", 0.25, true},
}

// Layers are the repo's module and file names; the stage names built on
// them below are the vocabulary later telemetry work reuses verbatim.
var layers = []string{
	"sched", "collectors", "aggregate", "store", "index", "dispatch",
	"sinks", "push", "cluster", "ingest", "persist", "forward", "query",
	"alert", "derive", "telemetry",
}

// perLayer lists every per-layer metric.  A traced run reports all of
// them; a layer the workload does not touch reads 0, which is the
// "must not move" column of the issue's table made visible.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sched.tick_lag_p50_us", "us", "lower", 0, false},
		{"sched.gen_late_p99_ms", "ms", "lower", 0, false},
		{"collectors.collect_us", "us", "lower", 0, false},
		{"collectors.samples_per_tick", "count", "higher", 0, false},
		{"aggregate.rollup_us", "us", "lower", 0, false},
		{"store.append_ns_per_sample", "ns", "lower", 0, false},
		{"store.append_journaled_ns_per_sample", "ns", "lower", 0, false},
		{"store.intern_new_us_per_series", "us", "lower", 0, false},
		{"store.tier_compact_ns_per_sample", "ns", "lower", 0, false},
		{"store.window_us", "us", "lower", 0, false},
		{"index.select_exact_us", "us", "lower", 0, false},
		{"index.select_wildcard_us", "us", "lower", 0, false},
		{"index.select_labels_us", "us", "lower", 0, false},
		{"dispatch.wait_p50_us", "us", "lower", 0, false},
		{"dispatch.dropped_batches", "count", "lower", 0, false},
		{"sinks.csv_us_per_sample", "us", "lower", 0, false},
		{"sinks.jsonl_us_per_sample", "us", "lower", 0, false},
		{"sinks.http_latest_us_per_sample", "us", "lower", 0, false},
		{"push.self_us_per_sample", "us", "lower", 0, false},
		{"push.write_p50_ms", "ms", "lower", 0, false},
		{"push.accept_p50_ms", "ms", "lower", 0, false},
		{"push.post_rtt_p50_ms", "ms", "lower", 0, false},
		{"push.posts", "count", "lower", 0, false},
		{"push.conn_reuse_frac", "frac", "higher", 0, false},
		{"push.retries", "count", "lower", 0, false},
		{"push.wire_bytes_per_sample.hop1", "B", "lower", 0, false},
		{"push.wire_bytes_per_sample.hop2", "B", "lower", 0, false},
		{"cluster.ring_lookup_ns", "ns", "lower", 0, false},
		{"cluster.failovers", "count", "lower", 0, false},
		{"ingest.post_ms_p50", "ms", "lower", 0, false},
		{"ingest.decode_us_per_sample", "us", "lower", 0, false},
		{"ingest.append_us_per_sample", "us", "lower", 0, false},
		{"ingest.json_us_per_sample", "us", "lower", 0, false},
		{"ingest.rejected", "count", "lower", 0, false},
		{"persist.wal_us_per_sample", "us", "lower", 0, false},
		{"persist.wal_dropped_frac", "frac", "lower", 0, false},
		{"persist.wal_fsyncs", "count", "lower", 0, false},
		{"persist.wal_fsync_mean_ms", "ms", "lower", 0, false},
		{"persist.snapshot_bytes_per_sample", "B", "lower", 0, false},
		{"persist.restore_snapshot_s", "s", "lower", 0, false},
		{"persist.replay_us_per_record", "us", "lower", 0, false},
		{"forward.wait_p50_ms", "ms", "lower", 0, false},
		{"forward.post_rtt_p50_ms", "ms", "lower", 0, false},
		{"forward.dropped_batches", "count", "lower", 0, false},
		{"query.bytes_per_response", "B", "lower", 0, false},
		{"query.points_per_s", "1/s", "higher", 0, false},
		{"query.errors", "count", "lower", 0, false},
		{"alert.eval_us", "us", "lower", 0, false},
		{"derive.eval_us", "us", "lower", 0, false},
		{"alert.resolve_hit_frac", "frac", "higher", 0, false},
		{"derive.resolve_hit_frac", "frac", "higher", 0, false},
		{"telemetry.snapshot_us", "us", "lower", 0, false},
		{"telemetry.self_collect_us", "us", "lower", 0, false},
		{"proc.allocs_per_sample", "count", "lower", 0, false},
		{"proc.alloc_bytes_per_sample", "B", "lower", 0, false},
		{"proc.gc_pause_ms", "ms", "lower", 0, false},
		{"proc.generator_cpu_frac", "frac", "lower", 0, false},
		{"trace_overhead_frac", "frac", "lower", 0, false},
		// The traced pass's own freshness p50, to set beside the stage sum.
		{"fleet.freshness_p50_ms", "ms", "lower", 0, false},
		// Tails moved 2x run to run in the prototype: diagnostics only.
		{"fleet.freshness_p99_ms", "ms", "lower", 0, false},
		{"query.queries_per_s", "1/s", "higher", 0, false},
		{"query.exact_p50_ms", "ms", "lower", 0, false},
		{"query.exact_p99_ms", "ms", "lower", 0, false},
		{"agent.tick_p99_us", "us", "lower", 0, false},
		{"fleet.loss_frac", "frac", "lower", 0, false},
		// The per-stage medians that must add up to freshness_p50_ms.
		{"fleet.stage_sum_ms", "ms", "lower", 0, false},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{"busy." + l, "frac", "lower", 0, false})
	}
	return defs
}()

// workloadDef is one workload.  Gated marks the ones BENCHMARK.json
// lists: the driver's time limit leaves room for three workloads at a
// run length that rides out this box's noise, so the two that vary a
// gated workload's shape (deep batches through the same fleet, the
// persistence layer on its own) run by hand and under -all only.
type workloadDef struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	Gated bool   `json:"-"`
}

var workloads = []workloadDef{
	{"fleet-steady", "One sample's whole journey at the shape agents really produce: wide batches, one point per series per POST, open loop well below saturation so loss is exactly 0.", true},
	{"fleet-catchup", "The same fleet fed deep batches at saturation, the shape after an outage: dense columns through codec, ingest and WAL, no sched or dispatch.", false},
	{"agent-node", "What the agent costs on the node it watches: real collectors on a simulated node through aggregate, tiered store, text sinks and both rule engines.", true},
	{"query-mixed", "Reads beside writes on one store: exact, fan-out, label and scrape queries against 10k series while a JSON pusher and the rule engines run.", true},
	{"recover-restart", "WAL append, snapshot dump and crash replay of 20k series: the disk density and recovery cost no other workload measures.", false},
}

// gatedEndToEnd and gatedWorkloads are the subsets BENCHMARK.json lists.
func gatedEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.Gated {
			out = append(out, d)
		}
	}
	return out
}

func gatedWorkloads() []workloadDef {
	var out []workloadDef
	for _, w := range workloads {
		if w.Gated {
			out = append(out, w)
		}
	}
	return out
}

// The three places an end-to-end metric can come from.
const (
	fromMain      = "main"      // the workload's measured phase
	fromReadback  = "readback"  // query epilogue over the terminal store
	fromReplicate = "replicate" // ship + journal + snapshot + recover epilogue
)

// sourceOf says which phase supplies a metric on a workload.  The
// measured phase wins wherever it exercises the path; the epilogues
// fill the rest from the store that phase left behind, so every
// (workload, metric) pair is a measured, non-zero number.
func sourceOf(workload, metric string) string {
	switch metric {
	case "queries_per_s", "query_exact_p50_ms", "query_fanout_p50_ms", "scrape_p50_ms":
		if workload == "query-mixed" {
			return fromMain
		}
		return fromReadback
	case "snapshot_s", "recover_s":
		if workload == "recover-restart" {
			return fromMain
		}
		return fromReplicate
	case "wire_bytes_per_sample":
		if workload == "agent-node" || workload == "recover-restart" {
			return fromReplicate
		}
	case "disk_bytes_per_sample":
		if workload == "agent-node" || workload == "query-mixed" {
			return fromReplicate
		}
	}
	return fromMain
}

// quantile is the linear-interpolated q-quantile of vs (copied, sorted).
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return stats.Quantile(s, q)
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quartiles mirrors Python's statistics.quantiles(vs, n=4) (exclusive
// method), the rule the acceptance spread is computed by.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}
