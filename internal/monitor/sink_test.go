package monitor

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"likwid/internal/benchreport"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenBatches is a fixed two-tick stream covering every scope.
func goldenBatches() []Batch {
	return []Batch{
		{
			Collector: "perfgroup/MEM_DP",
			Time:      0.5,
			Samples: []Sample{
				{Metric: "dp_mflops_s", Scope: ScopeThread, ID: 0, Time: 0.5, Value: 571.25},
				{Metric: "dp_mflops_s", Scope: ScopeThread, ID: 1, Time: 0.5, Value: 0},
				{Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0, Time: 0.5, Value: 13714.285},
				{Metric: "dp_mflops_s", Scope: ScopeNode, ID: 0, Time: 0.5, Value: 571.25},
			},
		},
		{
			Collector: "perfgroup/MEM_DP",
			Time:      1.0,
			Samples: []Sample{
				{Metric: "dp_mflops_s", Scope: ScopeThread, ID: 0, Time: 1.0, Value: 570.75},
				{Metric: "dp_mflops_s", Scope: ScopeThread, ID: 1, Time: 1.0, Value: 12.5},
				{Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0, Time: 1.0, Value: 13710},
				{Metric: "dp_mflops_s", Scope: ScopeNode, ID: 0, Time: 1.0, Value: 583.25},
			},
		},
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestCSVSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSink(&buf, nil)
	for _, b := range goldenBatches() {
		if err := s.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sink_csv.golden", buf.Bytes())
}

func TestJSONLSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf, nil)
	for _, b := range goldenBatches() {
		if err := s.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sink_jsonl.golden", buf.Bytes())
}

func TestTableSinkFiltersScopes(t *testing.T) {
	var buf bytes.Buffer
	s := NewTableSink(&buf, ScopeSocket, ScopeNode)
	if err := s.Write(goldenBatches()[0]); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "memory_bandwidth_mbytes_s") || !strings.Contains(out, "socket") {
		t.Errorf("table misses socket rows:\n%s", out)
	}
	if strings.Contains(out, "thread") {
		t.Errorf("table shows filtered thread rows:\n%s", out)
	}
}

// sourcedBatch is one fleet batch: samples carrying agent identities,
// the shape a receiver-side sink sees.
func sourcedBatch() Batch {
	return Batch{
		Collector: "perfgroup/MEM_DP",
		Time:      0.5,
		Samples: []Sample{
			{Source: "nodeA", Metric: "bw", Scope: ScopeNode, ID: 0, Time: 0.5, Value: 100},
			{Source: "nodeB", Metric: "bw", Scope: ScopeNode, ID: 0, Time: 0.5, Value: 200},
		},
	}
}

// TestSinksCarrySourceColumn pins that every file/terminal sink renders
// the source dimension when fleet samples carry one — and leaves the
// compact local formats untouched otherwise (the goldens above pin
// that).
func TestSinksCarrySourceColumn(t *testing.T) {
	t.Run("csv", func(t *testing.T) {
		var buf bytes.Buffer
		s := NewCSVSink(&buf, nil)
		if err := s.Write(sourcedBatch()); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.HasPrefix(out, "time,collector,source,metric,scope,id,value\n") {
			t.Errorf("csv header misses the source column:\n%s", out)
		}
		if !strings.Contains(out, ",nodeA,bw,node,0,100") || !strings.Contains(out, ",nodeB,bw,node,0,200") {
			t.Errorf("csv rows miss sources:\n%s", out)
		}
	})
	t.Run("jsonl", func(t *testing.T) {
		var buf bytes.Buffer
		s := NewJSONLSink(&buf, nil)
		if err := s.Write(sourcedBatch()); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"source":"nodeA"`) {
			t.Errorf("jsonl record misses the source field:\n%s", buf.String())
		}
	})
	t.Run("table", func(t *testing.T) {
		var buf bytes.Buffer
		s := NewTableSink(&buf)
		if err := s.Write(sourcedBatch()); err != nil {
			t.Fatal(err)
		}
		out := buf.String()
		if !strings.Contains(out, "Source") || !strings.Contains(out, "nodeA") {
			t.Errorf("table misses the Source column:\n%s", out)
		}
		// A local batch keeps the four-column layout.
		buf.Reset()
		if err := s.Write(goldenBatches()[0]); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(buf.String(), "Source") {
			t.Errorf("local table grew a Source column:\n%s", buf.String())
		}
	})
}

// blockingSink parks in Write until released, to force queue overflow.
type blockingSink struct {
	entered chan struct{}
	release chan struct{}
	written int
}

func (b *blockingSink) Name() string { return "blocking" }
func (b *blockingSink) Write(Batch) error {
	b.entered <- struct{}{}
	<-b.release
	b.written++
	return nil
}
func (b *blockingSink) Close() error { return nil }

func TestDispatcherOverflowDropsAndCounts(t *testing.T) {
	sink := &blockingSink{entered: make(chan struct{}, 4), release: make(chan struct{}, 4)}
	d := NewDispatcher(1, sink)

	batch := Batch{Collector: "c", Samples: []Sample{{Metric: "m"}}}
	if !d.Publish(batch) {
		t.Fatal("first publish rejected with empty queue")
	}
	<-sink.entered // dispatcher now blocked inside the sink
	if !d.Publish(batch) {
		t.Fatal("second publish rejected: queue slot was free")
	}
	if d.Publish(batch) {
		t.Fatal("third publish accepted: queue should be full")
	}
	if got := d.Dropped(); got != 1 {
		t.Fatalf("Dropped = %d, want 1", got)
	}
	// Release both queued writes and drain.
	sink.release <- struct{}{}
	<-sink.entered
	sink.release <- struct{}{}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.written != 2 {
		t.Errorf("sink wrote %d batches, want 2 (1 dropped)", sink.written)
	}
	if got := d.Written(); got != 2 {
		t.Errorf("Written = %d, want 2", got)
	}
	// Publishing after Close only counts drops.
	if d.Publish(batch) {
		t.Error("publish after Close must be rejected")
	}
	if got := d.Dropped(); got != 2 {
		t.Errorf("Dropped after close = %d, want 2", got)
	}
}

// errorSink always fails to write.
type errorSink struct{}

func (errorSink) Name() string      { return "err" }
func (errorSink) Write(Batch) error { return errors.New("disk full") }
func (errorSink) Close() error      { return nil }

func TestDispatcherFailedWritesAreNotCountedDelivered(t *testing.T) {
	d := NewDispatcher(4, errorSink{})
	d.Publish(goldenBatches()[0])
	deadline := time.Now().Add(5 * time.Second)
	for d.Errors() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := d.Written(); got != 0 {
		t.Errorf("Written = %d after all-failing sink, want 0", got)
	}
	if got := d.Errors(); got != 1 {
		t.Errorf("SinkErrors = %d, want 1", got)
	}
}

func TestParseSinkSpecs(t *testing.T) {
	dir := t.TempDir()
	store := NewStore(8)

	csvPath := filepath.Join(dir, "out.csv")
	s, err := ParseSink(context.Background(), "csv:"+csvPath, store)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(goldenBatches()[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "time,collector,metric,scope,id,value\n") {
		t.Errorf("csv sink output:\n%s", data)
	}

	if _, err := ParseSink(context.Background(), "csv", nil); err == nil {
		t.Error("csv without path must fail")
	}
	if _, err := ParseSink(context.Background(), "bogus:x", nil); err == nil {
		t.Error("unknown sink kind must fail")
	}
	if _, err := ParseSink(context.Background(), "http", nil); err == nil {
		t.Error("http without address must fail")
	}

	h, err := ParseSink(context.Background(), "http:127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := h.(*HTTPSink); !ok {
		t.Errorf("http spec built %T", h)
	}
	_ = h.Close()
}

func TestDispatcherDeliversInOrder(t *testing.T) {
	var buf bytes.Buffer
	d := NewDispatcher(8, NewCSVSink(&buf, nil))
	for _, b := range goldenBatches() {
		if !d.Publish(b) {
			t.Fatal("publish rejected under capacity")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Written() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sink_csv.golden", buf.Bytes())
}

// agentBatch is one agent-node tick: 11 metrics over 12 threads and 2
// sockets plus 3 node roll-ups — 157 samples, optionally stamped with a
// label set the way -labels stamps every sample.
func agentBatch(labelled bool) Batch {
	var ls Labels
	if labelled {
		ls, _ = ParseLabelSpec("job=lbm,cluster=emmy")
	}
	metrics := []string{"dp_mflops_s", "sp_mflops_s", "memory_bandwidth_mbytes_s", "memory_data_volume_gbytes",
		"runtime_rdtsc_s", "clock_mhz", "cpi", "l2_bandwidth_mbytes_s", "l3_bandwidth_mbytes_s", "energy_j", "power_w"}
	b := Batch{Collector: "perfgroup/MEM_DP", Time: 12.5}
	add := func(m string, sc Scope, id int) {
		v := float64(len(b.Samples)+1) * 1234.5678
		b.Samples = append(b.Samples, Sample{Metric: m, Scope: sc, ID: id, Labels: ls, Time: 12.5, Value: v})
	}
	for _, m := range metrics {
		for id := 0; id < 12; id++ {
			add(m, ScopeThread, id)
		}
		for id := 0; id < 2; id++ {
			add(m, ScopeSocket, id)
		}
	}
	for _, m := range metrics[:3] {
		add(m, ScopeNode, 0)
	}
	return b
}

func textSink(kind string) Sink {
	if kind == "csv" {
		return NewCSVSink(io.Discard, nil)
	}
	return NewJSONLSink(io.Discard, nil)
}

// TestTextSinksZeroAllocs pins the append encoders' promise: once its
// buffer has grown, a text sink writes a whole batch without allocating.
func TestTextSinksZeroAllocs(t *testing.T) {
	for _, kind := range []string{"csv", "jsonl"} {
		for _, labelled := range []bool{false, true} {
			s, b := textSink(kind), agentBatch(labelled)
			if err := s.Write(b); err != nil { // header, buffer growth
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() { _ = s.Write(b) }); n != 0 {
				t.Errorf("%s (labelled %v): %v allocs per warm Write, want 0", kind, labelled, n)
			}
		}
	}
}

// BenchmarkSinkWrite times the text sinks on one agent-node tick.
func BenchmarkSinkWrite(b *testing.B) {
	for _, kind := range []string{"csv", "jsonl"} {
		for _, shape := range []string{"plain", "labelled"} {
			b.Run(kind+"/"+shape, func(b *testing.B) {
				s, batch := textSink(kind), agentBatch(shape == "labelled")
				benchreport.PerSample(b, len(batch.Samples), func() {
					if err := s.Write(batch); err != nil {
						b.Fatal(err)
					}
				})
			})
		}
	}
}

// parentCSVRow is the CSV row as the sink built it with string
// concatenation and fmt — the oracle appendCSVRow must match.
func parentCSVRow(sm Sample, collector string, sourced, labelled bool) string {
	row := strconv.FormatFloat(sm.Time, 'f', 6, 64) + "," + collector
	if sourced {
		row += "," + sm.Source
	}
	if labelled {
		row += ","
		if ls := sm.Labels.String(); ls != "" {
			row += `"` + ls + `"`
		}
	}
	return fmt.Sprintf("%s,%s,%s,%d,%s\n", row, sm.Metric, sm.Scope, sm.ID, strconv.FormatFloat(sm.Value, 'g', 6, 64))
}

// appendCSVRow is a whole CSV row from the sink's three parts.
func appendCSVRow(dst []byte, sm Sample, collector string, sourced, labelled bool) []byte {
	return appendCSVValue(appendCSVIdentity(appendTime(dst, sm.Time), sm, collector, sourced, labelled), sm.Value)
}

func TestAppendCSVRowMatchesFmt(t *testing.T) {
	lbm := mustLabels(t, "job=lbm,cluster=emmy")
	samples := []Sample{
		{Metric: "dp_mflops_s", Scope: ScopeThread, ID: 3, Time: 0.5, Value: 571.25},
		{Metric: "bw", Scope: ScopeSocket, ID: 1, Time: 1e9 + 0.123456789, Value: 13714.285714},
		{Metric: "x/min", Scope: ScopeNode, Time: -0.0, Value: -0.0},
		{Metric: "tiny", Scope: ScopeCore, ID: 7, Time: 3, Value: 1e-7},
		{Metric: "huge", Scope: ScopeNode, Time: 3, Value: 1e21},
		{Metric: "nan", Scope: ScopeNode, Time: 3, Value: math.NaN()},
		{Metric: "inf", Scope: ScopeNode, Time: math.Inf(1), Value: math.Inf(-1)},
		{Metric: "odd", Scope: Scope(9), ID: -2, Time: 4, Value: 5e-324},
		{Source: "nodeA-7", Metric: "bw", Scope: ScopeNode, Time: 2, Value: 100},
		{Source: "nodeB-9", Labels: lbm, Metric: "bw", Scope: ScopeNode, Time: 2, Value: 200},
		{Labels: lbm, Metric: "bw", Scope: ScopeThread, ID: 11, Time: 2, Value: 300.5},
	}
	for _, schema := range []struct {
		name              string
		sourced, labelled bool
	}{{"plain", false, false}, {"sourced", true, false}, {"labelled", false, true}, {"sourced+labelled", true, true}} {
		for _, sm := range samples {
			want := parentCSVRow(sm, "perfgroup/MEM_DP", schema.sourced, schema.labelled)
			got := appendCSVRow([]byte("prefix"), sm, "perfgroup/MEM_DP", schema.sourced, schema.labelled)
			if string(got) != "prefix"+want {
				t.Errorf("%s %+v:\n got %q\nwant %q", schema.name, sm, got[len("prefix"):], want)
			}
		}
	}
}

// jsonLineSeed is one FuzzJSONLine seed: a record's fields, plus a
// label name and value (see FuzzJSONLine).
type jsonLineSeed struct {
	tm, sentAt, v                            float64
	collector, source, metric, lname, lvalue string
	scope                                    uint8
	id                                       int
}

// jsonLineSeeds are FuzzJSONLine's seeds; TestCanonicalLinesTakeTheScanner
// decodes their lines.
var jsonLineSeeds = []jsonLineSeed{
	{0.5, 0, 571.25, "perfgroup/MEM_DP", "", "dp_mflops_s", "", "", 0, 0},
	{1, 100.5, 13714.285, "perfgroup/MEM_DP", "nodeA-7", "memory_bandwidth_mbytes_s", "job", "lbm", 2, 1},
	{2, 0, 1, "<script>&amp;", "a\"b\\c", "x>y", "j<b", "v&w", 3, 0},
	{2, 0, 1, "ctl\x00\x01\x1f\x7f", "tab\there", "nl\nx", "k", "\r", 1, 5},
	{2, 0, 1, "bad\xff\xfeutf8", "\xc3", "ok", "k", "\xed\xa0\x80", 0, 0},
	{2, 0, 1, "line\u2028sep\u2029", "é", "µs", "k", "日本", 0, 0},
	{math.Copysign(0, -1), math.Copysign(0, -1), math.Copysign(0, -1), "c", "", "m", "", "", 0, -1},
	{1e-7, 1e-6, 1e21, "c", "", "m", "", "", 0, 0},
	{9.99e-7, 1e20, 1e-300, "c", "", "m", "", "", 0, 1 << 40},
	{5e-324, 2.2250738585072014e-308, math.MaxFloat64, "c", "", "m", "", "", 0, 0},
	{-1.5e-8, -123456789.123, -1e22, "c", "", "m", "", "", 9, 0},
	{math.NaN(), 0, 1, "c", "", "m", "", "", 0, 0},
	{1, math.Inf(1), 1, "c", "", "m", "", "", 0, 0},
	{1, 0, math.Inf(-1), "c", "", "m", "", "", 0, 0},
}

// FuzzJSONLine checks appendJSONLine against encoding/json, the oracle
// it replaces: the same bytes for every record json can encode (HTML
// escaping, invalid UTF-8, U+2028/2029, float forms and all), and an
// error with dst unchanged exactly where json errors.  A non-empty
// label name adds a two-pair set (name, name_) with the given value.
func FuzzJSONLine(f *testing.F) {
	for _, s := range jsonLineSeeds {
		f.Add(s.tm, s.sentAt, s.v, s.collector, s.source, s.metric, s.lname, s.lvalue, s.scope, s.id)
	}
	f.Fuzz(func(t *testing.T, tm, sentAt, v float64, collector, source, metric, lname, lvalue string, scope uint8, id int) {
		sm := Sample{Source: source, Metric: metric, Scope: Scope(scope), ID: id, Time: tm, Value: v}
		if lname != "" {
			// Built by hand, not interned: the oracle is about escaping,
			// so the pairs need not pass label validation.
			sm.Labels = Labels{set: &labelSet{pairs: []Label{{lname, lvalue}, {lname + "_", lvalue}}}}
		}
		want, werr := json.Marshal(jsonSample{
			Time: tm, SentAt: sentAt, Collector: collector, Source: source, Labels: sm.Labels.Map(),
			Metric: metric, Scope: sm.Scope.String(), ID: id, Value: v,
		})
		got, gerr := appendJSONLine([]byte("prefix"), sm, collector, sentAt)
		if (werr != nil) != (gerr != nil) {
			t.Fatalf("error mismatch: json %v, appendJSONLine %v", werr, gerr)
		}
		if werr != nil {
			if string(got) != "prefix" {
				t.Fatalf("failed record left %q behind", got)
			}
			return
		}
		if want = append([]byte("prefix"), append(want, '\n')...); !bytes.Equal(got, want) {
			t.Fatalf("record mismatch:\n got %q\nwant %q", got, want)
		}
	})
}

// TestJSONLSinkSkipsNonFinite pins that one NaN or ±Inf reading costs
// its own line, not the rest of the batch: JSON cannot spell it, so the
// sample is skipped and counted.
func TestJSONLSinkSkipsNonFinite(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf, nil)
	b := goldenBatches()[0]
	b.Samples[0].Value = math.NaN()
	b.Samples[2].Time = math.Inf(1)
	if err := s.Write(b); err != nil {
		t.Fatalf("Write: %v, want the finite samples written", err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("wrote %d lines, want the 2 finite samples:\n%s", lines, buf.String())
	}
	if got := s.(*jsonlSink).skippedNonFinite(); got != 2 {
		t.Errorf("skipped = %d, want 2", got)
	}
}

// TestTextSinksRowCacheMatchesEncoders streams random batches through
// the CSV and JSON-lines sinks and holds their cached identities and
// times to the uncached row encoders: collectors interleave, shapes
// change mid-stream (a row dropped or added, a metric renamed, an id
// changed, two rows swapped), and rows carry sources, labels, NaN and
// ±Inf.
func TestTextSinksRowCacheMatchesEncoders(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 2))
	lbm := mustLabels(t, "job=lbm,cluster=emmy")
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	reading := func(base float64) float64 {
		if rng.IntN(10) == 0 {
			return specials[rng.IntN(len(specials))]
		}
		return base + rng.Float64()
	}
	shapes := map[string][]Sample{}
	for _, c := range []string{"perfgroup/MEM_DP", "membw", "topology"} {
		for i, rows := 0, 5+rng.IntN(20); i < rows; i++ {
			sm := Sample{Metric: fmt.Sprintf("m%d", rng.IntN(6)), Scope: Scope(rng.IntN(4)), ID: rng.IntN(8)}
			switch rng.IntN(4) {
			case 0:
				sm.Source = "nodeB-9"
			case 1:
				sm.Labels = lbm
			}
			shapes[c] = append(shapes[c], sm)
		}
	}
	collectors := []string{"perfgroup/MEM_DP", "membw", "topology"}
	// A sourced, labelled first batch fixes the CSV schema with both
	// columns.
	stream := []Batch{{Collector: "self", Time: -1, Samples: []Sample{
		{Source: "nodeB-9", Labels: lbm, Metric: "schema", Scope: ScopeNode, Time: -1, Value: 1}}}}
	for n := 0; n < 400; n++ {
		c := collectors[rng.IntN(len(collectors))]
		rows := shapes[c]
		switch i := rng.IntN(max(len(rows), 1)); rng.IntN(12) {
		case 0:
			rows = slices.Delete(slices.Clone(rows), i, i+1)
		case 1:
			rows = append(slices.Clone(rows), Sample{Metric: "added", Scope: ScopeNode})
		case 2:
			rows = slices.Clone(rows)
			rows[i].Metric += "_renamed"
		case 3:
			rows = slices.Clone(rows)
			rows[i].ID++
		case 4:
			rows = slices.Clone(rows)
			j := rng.IntN(len(rows))
			rows[i], rows[j] = rows[j], rows[i]
		case 5:
			rows = nil
		}
		if len(rows) > 0 {
			shapes[c] = rows
		}
		b := Batch{Collector: c, Time: float64(n)}
		for _, sm := range rows {
			sm.Time, sm.Value = reading(float64(n)), reading(float64(n)*10)
			if rng.IntN(3) > 0 {
				sm.Time = b.Time // most rows share the batch's reading time
			}
			b.Samples = append(b.Samples, sm)
		}
		stream = append(stream, b)
	}

	var csvOut, jsonOut bytes.Buffer
	csv, jsonl := NewCSVSink(&csvOut, nil), NewJSONLSink(&jsonOut, nil)
	var wantCSV, wantJSON []byte
	skipped := uint64(0)
	for _, b := range stream {
		if err := csv.Write(b); err != nil {
			t.Fatal(err)
		}
		if err := jsonl.Write(b); err != nil {
			t.Fatal(err)
		}
		for _, sm := range b.Samples {
			wantCSV = appendCSVRow(wantCSV, sm, b.Collector, true, true)
			var err error
			if wantJSON, err = appendJSONLine(wantJSON, sm, b.Collector, 0); err != nil {
				skipped++
			}
		}
	}
	head, gotCSV, _ := bytes.Cut(csvOut.Bytes(), []byte("\n"))
	if string(head) != "time,collector,source,labels,metric,scope,id,value" {
		t.Fatalf("CSV header %q", head)
	}
	for _, c := range []struct {
		name      string
		got, want []byte
	}{{"csv", gotCSV, wantCSV}, {"jsonl", jsonOut.Bytes(), wantJSON}} {
		if !bytes.Equal(c.got, c.want) {
			g, w := strings.Split(string(c.got), "\n"), strings.Split(string(c.want), "\n")
			for i := range min(len(g), len(w)) {
				if g[i] != w[i] {
					t.Fatalf("%s line %d:\n got %q\nwant %q", c.name, i, g[i], w[i])
				}
			}
			t.Fatalf("%s: %d lines, want %d", c.name, len(g), len(w))
		}
	}
	if got := jsonl.(*jsonlSink).skippedNonFinite(); got != skipped || skipped == 0 {
		t.Errorf("jsonl skipped %d non-finite rows, the encoder %d (want > 0)", got, skipped)
	}
}

// gateSink holds every Write until its gate is closed.
type gateSink struct{ entered, gate chan struct{} }

func (g gateSink) Name() string { return "gate" }
func (g gateSink) Write(Batch) error {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return nil
}
func (g gateSink) Close() error { return nil }

// TestDispatcherPublishAllocatesNothing pins the sampling path's cost of
// handing a batch on: a Publish allocates nothing, queued or dropped.
func TestDispatcherPublishAllocatesNothing(t *testing.T) {
	sink := gateSink{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	d := NewDispatcher(64, sink)
	b := goldenBatches()[0]
	d.Publish(b)
	<-sink.entered // the loop now holds one batch; the queue fills, then drops
	if avg := testing.AllocsPerRun(200, func() { d.Publish(b) }); avg != 0 {
		t.Errorf("Publish allocates %.1f times, want 0", avg)
	}
	if d.Dropped() == 0 {
		t.Error("no Publish hit a full queue")
	}
	close(sink.gate)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}
