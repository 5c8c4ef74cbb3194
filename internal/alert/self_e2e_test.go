package alert

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// TestSelfTelemetryEndToEnd is the acceptance loop of the self-telemetry
// tentpole: a receiver instruments itself, a fleet agent pushes
// sent_at-stamped batches (wire latency lands in the per-peer
// histograms), a stream of malformed batches moves the receiver's own
// likwid_ingest_rejected_total, a SelfCollector republishes the registry
// as self/likwid_* series that survive raw-ring eviction into a
// retention tier and are windowable via /query?source=self — and one
// alert rule fires on the receiver's own rejection rate, exactly the
// "who watches the watcher" rule the alert DSL was built for.
func TestSelfTelemetryEndToEnd(t *testing.T) {
	// A fake wall clock drives the registry, so the self series' sample
	// times (registry uptime) advance deterministically.
	now := time.Unix(0, 0)
	reg := telemetry.NewWithClock(func() time.Time { return now })

	// Tiny raw ring + one tier: 30 self ticks must overflow the ring and
	// compact, proving self series ride retention like any other series.
	store := monitor.NewStore(8, monitor.Tier{Resolution: 5, Capacity: 64})
	store.Instrument(reg)
	recv := newReceiver(t, store)
	recv.Instrument(reg)
	recv.Handle("/status", telemetry.StatusHandler(reg))
	base := "http://" + recv.Addr()

	// A healthy fleet agent pushes with the default wall clock, so every
	// record carries sent_at and the receiver traces its wire latency.
	push, err := monitor.NewPushSink(monitor.PushOptions{
		URL:          base + "/ingest",
		Client:       testClient,
		FlushSamples: 1,
		RetryBase:    time.Millisecond,
		Source:       "nodeA",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := push.Write(monitor.Batch{Collector: "perfgroup", Time: 1, Samples: []monitor.Sample{
		{Metric: "bw", Scope: monitor.ScopeNode, ID: 0, Time: 1, Value: 500},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := push.Close(); err != nil {
		t.Fatal(err)
	}

	// A misbehaving agent pushes a malformed label map once a second;
	// every batch is rejected (all-or-nothing), moving the receiver's
	// own rejection counter while the SelfCollector snapshots it.
	self := monitor.NewSelfCollector(reg, time.Second)
	bad := `{"time":1,"labels":{"bad name":"x"},"metric":"bw","scope":"node","id":0,"value":1}` + "\n"
	for i := 0; i < 30; i++ {
		now = now.Add(time.Second)
		resp, err := testClient.Post(base+"/ingest", "application/x-ndjson", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed ingest = %d, want 400", resp.StatusCode)
		}
		samples, err := self.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		store.AppendBatch(monitor.Batch{Collector: "self", Time: float64(i + 1), Samples: samples})
	}

	// The registry saw both sides: rejects counted by reason, the good
	// push's wire latency recorded per peer (label "peer": "source" is a
	// reserved store label name).
	var rejected, wireCount float64
	for _, m := range reg.Snapshot().Metrics {
		switch {
		case m.Name == "likwid_ingest_rejected_total" && m.Labels["reason"] == "decode":
			rejected = m.Value
		case m.Name == "likwid_ingest_wire_seconds" && m.Labels["peer"] == "nodeA":
			wireCount = float64(m.Count)
		}
	}
	if rejected != 30 {
		t.Fatalf("likwid_ingest_rejected_total{reason=decode} = %v, want 30", rejected)
	}
	if wireCount < 1 {
		t.Fatal("likwid_ingest_wire_seconds{peer=nodeA} recorded no observations")
	}

	// The self series is a first-class store citizen: source-keyed,
	// windowable over HTTP, and stitched across the raw ring and the
	// retention tier (30 points through an 8-point ring must serve more
	// than the ring can hold).
	qr, err := testClient.Get(base + "/query?source=self&metric=likwid_ingest_rejected_total&scope=node&id=0&from=0&to=31&label.reason=decode")
	if err != nil {
		t.Fatal(err)
	}
	qbody, _ := io.ReadAll(qr.Body)
	qr.Body.Close()
	var series struct {
		Series []struct {
			Source string          `json:"source"`
			Points []monitor.Point `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(qbody, &series); err != nil {
		t.Fatalf("bad /query JSON %q: %v", qbody, err)
	}
	if len(series.Series) != 1 || series.Series[0].Source != "self" {
		t.Fatalf("/query source=self = %s, want exactly the self series", qbody)
	}
	pts := series.Series[0].Points
	if len(pts) <= 8 {
		t.Fatalf("/query served %d points, want >8 (tier-compacted history stitched with raw)", len(pts))
	}
	if last := pts[len(pts)-1]; last.Value != 30 {
		t.Fatalf("newest self point = %+v, want the counter at 30", last)
	}

	// GET /status serves the live registry snapshot next to the store.
	sr, err := testClient.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	sbody, _ := io.ReadAll(sr.Body)
	sr.Body.Close()
	var status telemetry.Status
	if err := json.Unmarshal(sbody, &status); err != nil {
		t.Fatalf("bad /status JSON: %v", err)
	}
	if status.UptimeSeconds != 30 {
		t.Fatalf("/status uptime = %v, want 30 (fake clock)", status.UptimeSeconds)
	}

	// The watcher watches itself: an alert rule over the receiver's own
	// rejection rate fires, keyed source=self with the reason label.
	e, cap, _ := newTestEngine(t, store,
		`receiver_rejects: rate(self/likwid_ingest_rejected_total, node, 10s) > 0.5 for 0s`)
	e.EvalNow()
	evs := waitEvents(t, cap, 1)
	if evs[0].Source != "self" || evs[0].State != EventStateFiring {
		t.Fatalf("event = %+v, want a firing self-sourced alert", evs[0])
	}
	if evs[0].Labels["reason"] != "decode" {
		t.Fatalf("event labels = %v, want reason=decode", evs[0].Labels)
	}
}
