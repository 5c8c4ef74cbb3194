package alert

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"likwid/internal/monitor"
)

// TestFleetMixedVersionEndToEnd is the acceptance loop of the series
// identity refactor: a hand-rolled JSON-lines agent (source as its own
// field) and a push-sink agent (a Source identity) push into one
// receiver; both land on the same kind of source-keyed series, are
// queryable per source and across sources via /query, and one fleet
// rule raises per-source alert instances with per-source history.
func TestFleetMixedVersionEndToEnd(t *testing.T) {
	store := monitor.NewStore(64)
	recv := newReceiver(t, store)
	base := "http://" + recv.Addr()

	// Agent A is v2: a real push sink carrying its Source per sample.
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
	for i := 0; i <= 10; i++ {
		err := push.Write(monitor.Batch{Collector: "perfgroup", Time: float64(i), Samples: []monitor.Sample{
			{Metric: "bw", Scope: monitor.ScopeNode, ID: 0, Time: float64(i), Value: 50}, // idle: will fire
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := push.Close(); err != nil {
		t.Fatal(err)
	}

	// Agent B posts JSON lines by hand, its source in the v2 field.
	var lines bytes.Buffer
	for i := 0; i <= 10; i++ {
		fmt.Fprintf(&lines, `{"time":%d,"collector":"perfgroup","source":"nodeB","metric":"bw","scope":"node","id":0,"value":500}`+"\n", i)
	}
	resp, err := testClient.Post(base+"/ingest", "application/x-ndjson", &lines)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON-lines ingest = %d %q", resp.StatusCode, body)
	}

	// Both agents' series are source-keyed: nothing prefix-mangled.
	for _, source := range []string{"nodeA", "nodeB"} {
		k := monitor.Key{Source: source, Metric: "bw", Scope: monitor.ScopeNode, ID: 0}
		if n := store.Len(k); n != 11 {
			t.Fatalf("%s series has %d points, want 11 (keys: %+v)", source, n, store.Keys())
		}
	}

	// /query fans out across the fleet with a source wildcard.
	qr, err := testClient.Get(base + "/query?metric=bw&scope=node&source=*")
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
	if len(series.Series) != 2 || series.Series[0].Source != "nodeA" || series.Series[1].Source != "nodeB" {
		t.Fatalf("/query source=* = %s, want nodeA and nodeB series", qbody)
	}

	// One fleet rule: only the idle agent fires, keyed by its source.
	e, cap, _ := newTestEngine(t, store, "fleet_idle: avg(*/bw, node, 10s) < 100 for 0s")
	recv.Handle("/alerts", http.HandlerFunc(e.HandleAlerts))
	e.EvalNow()
	evs := waitEvents(t, cap, 1)
	if evs[0].Source != "nodeA" || evs[0].Metric != "bw" || evs[0].State != EventStateFiring {
		t.Fatalf("event = %+v, want nodeA firing", evs[0])
	}
	ar, err := testClient.Get(base + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	abody, _ := io.ReadAll(ar.Body)
	ar.Body.Close()
	if !strings.Contains(string(abody), `"source":"nodeA"`) {
		t.Fatalf("GET /alerts = %s, want a nodeA-sourced instance", abody)
	}
	// History is a per-source series, windowable through /query.
	hist := monitor.Key{Source: "nodeA", Metric: "alert/fleet_idle", Scope: monitor.ScopeNode, ID: 0}
	if p, ok := store.Latest(hist); !ok || p.Value != 1 {
		t.Fatalf("history = %+v (%v), want value 1", p, ok)
	}
}

// TestFleetLabeledEndToEnd is the acceptance loop of the labels
// tentpole: two labelled agents (the -labels stamp) push into a
// receiver carrying its own ingest-default labels, the merged store is
// sliceable by /query?label.*, and a label-matcher rule fires only for
// the matching label set — with the labels on the event, the /alerts
// instance, and a per-label-set history series.
func TestFleetLabeledEndToEnd(t *testing.T) {
	store := monitor.NewStore(64)
	recv := newReceiver(t, store)
	// The receiver stamps the machine-room identity under every push.
	cluster, err := monitor.ParseLabelSpec("cluster=emmy")
	if err != nil {
		t.Fatal(err)
	}
	recv.SetIngestLabels(cluster)
	base := "http://" + recv.Addr()

	// Two agents running different jobs: same metric, same scope — only
	// the labels (and sources) keep them apart.
	for agent, jobSpec := range map[string]string{"nodeA": "job=lbm", "nodeB": "job=ep"} {
		job, err := monitor.ParseLabelSpec(jobSpec)
		if err != nil {
			t.Fatal(err)
		}
		value := 50.0 // lbm idles below the threshold...
		if agent == "nodeB" {
			value = 500 // ...ep is healthy
		}
		push, err := monitor.NewPushSink(monitor.PushOptions{
			URL:          base + "/ingest",
			Client:       testClient,
			FlushSamples: 1,
			RetryBase:    time.Millisecond,
			Source:       agent,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i <= 10; i++ {
			err := push.Write(monitor.Batch{Collector: "perfgroup", Time: float64(i), Samples: []monitor.Sample{
				{Metric: "bw", Scope: monitor.ScopeNode, ID: 0, Labels: job, Time: float64(i), Value: value},
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := push.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The store keys carry the merged sets: agent job + receiver cluster.
	lbm := monitor.Key{Source: "nodeA", Metric: "bw", Scope: monitor.ScopeNode, ID: 0,
		Labels: mustParseLabels(t, "cluster=emmy,job=lbm")}
	if n := store.Len(lbm); n != 11 {
		t.Fatalf("lbm series has %d points, want 11 (keys: %+v)", n, store.Keys())
	}

	// /query slices the fleet by label, across sources.
	qr, err := testClient.Get(base + "/query?metric=bw&scope=node&source=*&label.job=lbm&label.cluster=em*")
	if err != nil {
		t.Fatal(err)
	}
	qbody, _ := io.ReadAll(qr.Body)
	qr.Body.Close()
	var series struct {
		Series []struct {
			Source string            `json:"source"`
			Labels map[string]string `json:"labels"`
			Points []monitor.Point   `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(qbody, &series); err != nil {
		t.Fatalf("bad /query JSON %q: %v", qbody, err)
	}
	if len(series.Series) != 1 || series.Series[0].Source != "nodeA" {
		t.Fatalf("/query label.job=lbm = %s, want exactly nodeA's series", qbody)
	}
	if series.Series[0].Labels["job"] != "lbm" || series.Series[0].Labels["cluster"] != "emmy" {
		t.Fatalf("/query series labels = %v, want the merged set", series.Series[0].Labels)
	}

	// A label-matcher fleet rule: only the lbm series is below the
	// threshold AND matches, so exactly one instance fires.
	e, cap, _ := newTestEngine(t, store, `lbm_idle: avg(*/bw{job="lbm"}, node, 10s) < 100 for 0s`)
	recv.Handle("/alerts", http.HandlerFunc(e.HandleAlerts))
	e.EvalNow()
	evs := waitEvents(t, cap, 1)
	if evs[0].Source != "nodeA" || evs[0].State != EventStateFiring {
		t.Fatalf("event = %+v, want nodeA firing", evs[0])
	}
	if evs[0].Labels["job"] != "lbm" || evs[0].Labels["cluster"] != "emmy" {
		t.Fatalf("event labels = %v, want the series' full set", evs[0].Labels)
	}

	// GET /alerts carries the label set on the instance.
	ar, err := testClient.Get(base + "/alerts")
	if err != nil {
		t.Fatal(err)
	}
	abody, _ := io.ReadAll(ar.Body)
	ar.Body.Close()
	if !strings.Contains(string(abody), `"labels":{"cluster":"emmy","job":"lbm"}`) {
		t.Fatalf("GET /alerts = %s, want a labelled instance", abody)
	}

	// History is a per-label-set series: the labelled key holds the
	// transition, the unlabelled one does not exist.
	hist := monitor.Key{Source: "nodeA", Metric: "alert/lbm_idle", Scope: monitor.ScopeNode, ID: 0,
		Labels: mustParseLabels(t, "cluster=emmy,job=lbm")}
	if p, ok := store.Latest(hist); !ok || p.Value != 1 {
		t.Fatalf("labelled history = %+v (%v), want value 1", p, ok)
	}
	bare := monitor.Key{Source: "nodeA", Metric: "alert/lbm_idle", Scope: monitor.ScopeNode, ID: 0}
	if _, ok := store.Latest(bare); ok {
		t.Fatal("unlabelled history series exists, want the label set on the key")
	}
}

// mustParseLabels builds a monitor label set or fails the test.
func mustParseLabels(t *testing.T, spec string) monitor.Labels {
	t.Helper()
	ls, err := monitor.ParseLabelSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ls
}
