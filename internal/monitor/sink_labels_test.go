package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"likwid/internal/telemetry"
)

// labelledBatch is one fleet batch with a mix of labelled and
// unlabelled samples.
func labelledBatch(t *testing.T) Batch {
	return Batch{
		Collector: "perfgroup/MEM_DP",
		Time:      0.5,
		Samples: []Sample{
			{Source: "nodeA", Metric: "bw", Scope: ScopeSocket, ID: 0, Time: 0.5, Value: 100,
				Labels: mustLabels(t, "job=lbm,cluster=emmy")},
			{Source: "nodeB", Metric: "bw", Scope: ScopeSocket, ID: 0, Time: 0.5, Value: 200},
		},
	}
}

func TestTableSinkLabelsColumn(t *testing.T) {
	var buf bytes.Buffer
	s := NewTableSink(&buf)
	if err := s.Write(labelledBatch(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Source", "Labels", "cluster=emmy,job=lbm", "nodeA", "nodeB"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	// A plain local batch keeps the compact table: no Labels column.
	buf.Reset()
	if err := s.Write(Batch{Collector: "c", Samples: []Sample{
		{Metric: "bw", Scope: ScopeNode, Value: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Labels") {
		t.Errorf("unlabelled batch grew a Labels column:\n%s", buf.String())
	}
}

func TestCSVSinkLabelsColumn(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSink(&buf, nil)
	if err := s.Write(labelledBatch(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time,collector,source,labels,metric,scope,id,value" {
		t.Errorf("header = %q", lines[0])
	}
	if want := `0.500000,perfgroup/MEM_DP,nodeA,"cluster=emmy,job=lbm",bw,socket,0,100`; lines[1] != want {
		t.Errorf("labelled row = %q, want %q", lines[1], want)
	}
	// The unlabelled sample keeps an empty (not quoted-empty) cell.
	if want := `0.500000,perfgroup/MEM_DP,nodeB,,bw,socket,0,200`; lines[2] != want {
		t.Errorf("unlabelled row = %q, want %q", lines[2], want)
	}
}

func TestJSONLSinkLabelsField(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf, nil)
	if err := s.Write(labelledBatch(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var rec struct {
		Labels map[string]string `json:"labels"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Labels["job"] != "lbm" || rec.Labels["cluster"] != "emmy" {
		t.Errorf("jsonl labels = %v", rec.Labels)
	}
	if strings.Contains(lines[1], "labels") {
		t.Errorf("unlabelled record carries a labels field: %s", lines[1])
	}
}

// TestSchedulerStampsLabels covers the agent half of -labels: every
// sample of every batch — roll-ups included — carries the configured
// set by the time it reaches the store and the dispatcher.
func TestSchedulerStampsLabels(t *testing.T) {
	clock := NewFakeClock()
	store := NewStore(16)
	ls := mustLabels(t, "cluster=emmy,job=lbm")
	own := mustLabels(t, "gpu=0,job=own")
	sched := NewScheduler(SchedulerOptions{Clock: clock, Store: store, Labels: ls})
	sched.Add(&stubCollector{name: "stub", interval: time.Second, samples: func(tick int) []Sample {
		return []Sample{
			{Metric: "bw", Scope: ScopeNode, Time: float64(tick), Value: float64(tick)},
			// A collector that labels its own samples: its labels win per
			// name, the agent identity fills in underneath.
			{Metric: "gpu_bw", Scope: ScopeNode, Labels: own, Time: float64(tick), Value: float64(tick)},
		}
	}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sched.Run(ctx); close(done) }()
	for i := 0; i < 3; i++ {
		waitForWaiters(t, clock, 1)
		clock.Advance(time.Second)
	}
	waitForWaiters(t, clock, 1)
	cancel()
	<-done

	labelled := Key{Metric: "bw", Scope: ScopeNode, Labels: ls}
	if n := store.Len(labelled); n == 0 {
		t.Fatalf("no points on the labelled key; store keys: %+v", store.Keys())
	}
	if n := store.Len(Key{Metric: "bw", Scope: ScopeNode}); n != 0 {
		t.Errorf("unlabelled key has %d points, want everything stamped", n)
	}
	// The collector's own labels survived (job=own beat the agent's
	// job=lbm) and the agent's cluster filled in underneath.
	merged := Key{Metric: "gpu_bw", Scope: ScopeNode, Labels: mustLabels(t, "cluster=emmy,gpu=0,job=own")}
	if n := store.Len(merged); n == 0 {
		t.Errorf("no points on the merged key; store keys: %+v", store.Keys())
	}
}

// TestSchedulerStampYieldsOnOverflow pins the wire-cap invariant on the
// agent stamp: when the agent set unioned with a collector's own labels
// would exceed maxLabels, the stamp yields and the sample keeps the
// collector's (wire-valid) set instead of shipping an over-cap union
// every receiver would 400.
func TestSchedulerStampYieldsOnOverflow(t *testing.T) {
	clock := NewFakeClock()
	store := NewStore(16)
	agentSpec := make([]string, 0, 9)
	ownSpec := make([]string, 0, 9)
	for i := 0; i < 9; i++ {
		agentSpec = append(agentSpec, fmt.Sprintf("a%d=x", i))
		ownSpec = append(ownSpec, fmt.Sprintf("o%d=x", i))
	}
	own := mustLabels(t, strings.Join(ownSpec, ","))
	sched := NewScheduler(SchedulerOptions{
		Clock: clock, Store: store,
		Labels: mustLabels(t, strings.Join(agentSpec, ",")),
	})
	sched.Add(&stubCollector{name: "stub", interval: time.Second, samples: func(tick int) []Sample {
		return []Sample{{Metric: "bw", Scope: ScopeNode, Labels: own, Time: float64(tick), Value: 1}}
	}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sched.Run(ctx); close(done) }()
	waitForWaiters(t, clock, 1)
	clock.Advance(time.Second)
	waitForWaiters(t, clock, 1)
	cancel()
	<-done
	if n := store.Len(Key{Metric: "bw", Scope: ScopeNode, Labels: own}); n == 0 {
		t.Fatalf("overflowing stamp did not yield to the collector's own set; keys: %+v", store.Keys())
	}
	for _, k := range store.Keys() {
		if k.Labels.Len() > maxLabels {
			t.Fatalf("store holds an over-cap label set: %q", k.Labels)
		}
	}
}

// TestSchedulerStampOverflowReportsPerBuild pins how loudly the stamp
// yields: once per plan build, not once per row or per tick.  Three
// over-cap rows share one label set; a fourth row joins on tick 3 and
// forces the second build.
func TestSchedulerStampOverflowReportsPerBuild(t *testing.T) {
	clock, reg := NewFakeClock(), telemetry.New()
	agentSpec := make([]string, 0, 9)
	ownSpec := make([]string, 0, 9)
	for i := 0; i < 9; i++ {
		agentSpec = append(agentSpec, fmt.Sprintf("a%d=x", i))
		ownSpec = append(ownSpec, fmt.Sprintf("o%d=x", i))
	}
	own := mustLabels(t, strings.Join(ownSpec, ","))
	var reported atomic.Int64
	sched := NewScheduler(SchedulerOptions{
		Clock: clock, Store: NewStore(16), Telemetry: reg,
		Labels:  mustLabels(t, strings.Join(agentSpec, ",")),
		OnError: func(string, error) { reported.Add(1) },
	})
	sched.Add(&stubCollector{name: "stub", interval: time.Second, samples: func(tick int) []Sample {
		rows := []Sample{{Metric: "bw"}, {Metric: "cpi"}, {Metric: "ipc"}}
		if tick >= 3 {
			rows = append(rows, Sample{Metric: "flops"})
		}
		for i := range rows {
			rows[i].Scope, rows[i].Labels, rows[i].Time, rows[i].Value = ScopeNode, own, float64(tick), 1
		}
		return rows
	}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sched.Run(ctx); close(done) }()
	for i := 0; i < 4; i++ {
		waitForWaiters(t, clock, 1)
		clock.Advance(time.Second)
	}
	waitForWaiters(t, clock, 1)
	cancel()
	<-done
	if got := reg.Counter("likwid_collector_plan_rebuilds_total", "collector", "stub").Value(); got != 2 {
		t.Fatalf("%d plan builds, want 2", got)
	}
	if got := reported.Load(); got != 2 {
		t.Errorf("OnError fired %d times over 2 plan builds of 3 and 4 over-cap rows, want 2", got)
	}
}

// stubCollector emits one deterministic sample per tick.
type stubCollector struct {
	name     string
	interval time.Duration
	tick     int
	samples  func(tick int) []Sample
}

func (s *stubCollector) Name() string            { return s.name }
func (s *stubCollector) Scope() Scope            { return ScopeNode }
func (s *stubCollector) Interval() time.Duration { return s.interval }
func (s *stubCollector) Collect(context.Context) ([]Sample, error) {
	s.tick++
	return s.samples(s.tick), nil
}
