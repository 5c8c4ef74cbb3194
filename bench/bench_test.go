package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// pinned is the fixed wall clock of the self-test: with sent_at stamps
// frozen, two same-seed runs must put identical bytes on the wire.
func pinned() time.Time { return time.Unix(1_700_000_000, 0) }

func shortConfig(t *testing.T, seed int64) runConfig {
	return runConfig{seed: seed, seconds: 0.3, short: true, dir: t.TempDir(), now: pinned}
}

// TestWorkloads runs every workload in its -short size: once plain
// (all end-to-end metrics, all oracles) and once traced (all per-layer
// metrics, spans).  The traced run's untraced pass doubles as the
// second same-seed run of the determinism check.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			res, err := runWorkload(w.Name, shortConfig(t, 7))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.Failures {
				t.Errorf("oracle: %s", f)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.EndToEnd) != len(endToEnd) {
				t.Errorf("emitted %d end-to-end metrics, want %d", len(res.EndToEnd), len(endToEnd))
			}
			for _, d := range endToEnd {
				v, ok := res.EndToEnd[d.Name]
				if !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present %v): every workload reports every end-to-end metric, never 0", d.Name, v, ok)
				}
			}
			if res.EndToEnd["delivered_frac"] != 1 {
				t.Errorf("delivered_frac = %v, want exactly 1", res.EndToEnd["delivered_frac"])
			}

			tracePath := filepath.Join(t.TempDir(), "trace.json")
			traced, err := runTraced(w.Name, shortConfig(t, 7), tracePath)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range traced.Failures {
				t.Errorf("traced oracle: %s", f)
			}
			if len(traced.PerLayer) != len(perLayer) {
				t.Errorf("emitted %d per-layer metrics, want %d", len(traced.PerLayer), len(perLayer))
			}
			if traced.samples != res.samples || traced.posts != res.posts || traced.wireBytes != res.wireBytes {
				t.Errorf("same seed, different runs: samples %d/%d posts %d/%d wire bytes %d/%d",
					res.samples, traced.samples, res.posts, traced.posts, res.wireBytes, traced.wireBytes)
			}
			if res.samples == 0 {
				t.Errorf("measured phase completed no samples")
			}
			data, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatalf("trace file: %v", err)
			}
			var events []traceEvent
			if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
				t.Errorf("trace file does not hold trace events: %v", err)
			}
			if w.Name == "fleet-steady" {
				stages := traced.tracer.stages()
				for _, want := range []string{"sched.tick_lag", "collectors.collect", "dispatch.wait",
					"push.write", "push.post", "forward.write", "forward.post", "ingest.root_accept"} {
					if stages[want] == 0 {
						t.Errorf("traced fleet-steady holds no %s span", want)
					}
				}
				if traced.PerLayer["fleet.stage_sum_ms"] <= 0 {
					t.Errorf("no stage sum reported")
				}
			}
		})
	}
}

// TestBenchmarkJSON pins BENCHMARK.json to what the program emits for
// the driver: the gated workloads with their one-sentence why, the gated
// end-to-end metrics with unit, direction and bound, per-layer metrics,
// and every name's shape.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metric      `json:"end_to_end"`
		PerLayer   []metric      `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	// 4 + 22 runs per workload, plus set-up, epilogues and two builds,
	// must fit the driver's 3420 s.
	if total := (4 + 22*len(doc.Workloads)) * (doc.RunSeconds + 12); total > 3420-300 {
		t.Errorf("%d runs of about %d s do not fit the driver's budget", 4+22*len(doc.Workloads), doc.RunSeconds+12)
	}
	gatedW, gatedM := gatedWorkloads(), gatedEndToEnd()
	if len(doc.Workloads) != len(gatedW) {
		t.Fatalf("%d workloads listed, %d gated", len(doc.Workloads), len(gatedW))
	}
	for i, w := range gatedW {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %+v", i, doc.Workloads[i], w)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(gatedM) {
		t.Fatalf("%d end-to-end metrics listed, %d gated", len(doc.EndToEnd), len(gatedM))
	}
	seen := map[string]bool{}
	haveSetup := false
	for i, d := range gatedM {
		m := doc.EndToEnd[i]
		if m.Bound == nil || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			haveSetup = true
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if !nameRE.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("bad metric name %q", d.Name)
		}
	}
	if !haveSetup {
		t.Errorf("no setup_s metric")
	}
	if len(doc.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics listed, %d emitted", len(doc.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		m := doc.PerLayer[i]
		if m.Bound != nil || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, m, d)
		}
		if !nameRE.MatchString(d.Name) || len(d.Name) > 64 || seen[d.Name] {
			t.Errorf("bad or repeated metric name %q", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestEveryMetricHasASource: the table that says where a metric comes
// from covers every pair and sends each workload's own focus to its
// measured phase.
func TestEveryMetricHasASource(t *testing.T) {
	for _, w := range workloads {
		for _, d := range endToEnd {
			switch sourceOf(w.Name, d.Name) {
			case fromMain, fromReadback, fromReplicate:
			default:
				t.Errorf("%s on %s has no source", d.Name, w.Name)
			}
		}
	}
	if sourceOf("query-mixed", "queries_per_s") != fromMain || sourceOf("recover-restart", "recover_s") != fromMain {
		t.Errorf("a workload's own focus must come from its measured phase")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	cell := func(better string, bound float64, vs ...float64) summary {
		q1, q2, q3 := quartiles(vs)
		return summary{Better: better, Bound: bound, Median: q2, Q1: q1, Q3: q3, Spread: spread(vs), Values: vs}
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 80, 120, 70, 130, 90, 110, 100}
	cases := []struct {
		name     string
		old, new summary
		want     string
	}{
		{"unchanged", cell("lower", 0.1, steady...), cell("lower", 0.1, steady...), verdictSame},
		{"slower beyond the bound", cell("lower", 0.1, steady...), cell("lower", 0.1, scaled(1.2)...), verdictRegressed},
		{"slower inside the bound", cell("lower", 0.1, steady...), cell("lower", 0.1, scaled(1.05)...), verdictSame},
		{"every run faster", cell("lower", 0.1, steady...), cell("lower", 0.1, scaled(0.8)...), verdictImproved},
		{"rate dropped", cell("higher", 0.1, steady...), cell("higher", 0.1, scaled(0.8)...), verdictRegressed},
		{"rate rose", cell("higher", 0.1, steady...), cell("higher", 0.1, scaled(1.3)...), verdictImproved},
		{"spread wider than the bound", cell("lower", 0.1, noisy...), cell("lower", 0.1, noisy...), verdictUnresolved},
	}
	for _, c := range cases {
		if got, _ := verdict(c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	old := &trajectory{Workloads: map[string]map[string]summary{"fleet-steady": {"setup_s": cases[1].old}}}
	cur := &trajectory{Workloads: map[string]map[string]summary{"fleet-steady": {"setup_s": cases[1].new}}}
	var buf bytes.Buffer
	if code := compareTrajectories(&buf, old, cur); code == 0 || !strings.Contains(buf.String(), verdictRegressed) {
		t.Errorf("a regression must exit non-zero and say so; got code %d:\n%s", code, buf.String())
	}
}
