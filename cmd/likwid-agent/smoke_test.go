package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// The smokes run the shipped binary the way an operator does: real
// processes, real sockets on ports the kernel picks, signals for
// shutdown.  Every spawned process is SIGKILLed and reaped at cleanup.

// TestReceiverSmoke boots a receiver and pokes its operational surface:
// /healthz and /readyz answer, /status carries a nonzero uptime and a
// non-empty registry, -pprof mounts /debug/pprof/, and SIGTERM shuts it
// down cleanly.
func TestReceiverSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the agent binary")
	}
	bin := buildAgent(t)
	p := startAgent(t, bin, []string{"-receiver", "127.0.0.1:0", "-pprof", "-log-format", "json"}, "receiver listening")

	var health struct{ Status string }
	getJSON(t, p.base+"/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("/healthz status = %q, want ok", health.Status)
	}
	var ready struct{ Status string }
	getJSON(t, p.base+"/readyz", &ready)
	if ready.Status != "ready" {
		t.Errorf("/readyz status = %q, want ready", ready.Status)
	}
	var status struct {
		Uptime  float64           `json:"uptime_seconds"`
		Metrics []json.RawMessage `json:"metrics"`
	}
	getJSON(t, p.base+"/status", &status)
	if status.Uptime <= 0 {
		t.Errorf("/status uptime_seconds = %v, want > 0", status.Uptime)
	}
	if len(status.Metrics) == 0 {
		t.Error("/status has no metrics")
	}
	if code, body := getBody(t, p.base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d under -pprof: %s", code, body)
	}
	if err := p.terminate(t); err != nil {
		t.Fatalf("receiver exit on SIGTERM: %v; log:\n%s", err, p.log)
	}
}

// TestCrashRecoverySmoke ingests into a -wal receiver, SIGKILLs it once
// the WAL holds the batch (no shutdown path runs), restarts it on the
// same state directory, and the pre-crash window must come back.
func TestCrashRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the agent binary")
	}
	bin := buildAgent(t)
	walDir := filepath.Join(t.TempDir(), "state")
	args := []string{"-receiver", "127.0.0.1:0", "-wal", walDir, "-log-format", "json"}

	first := startAgent(t, bin, args, "receiver listening")
	ingestRange(t, first.base, 1, 6)
	waitBWRecords(t, filepath.Join(walDir, "wal.log"), 5)
	first.kill()

	second := startAgent(t, bin, args, "receiver listening")
	if got := pointTimes(queryPoints(t, second.base, 0)); !slices.Equal(got, span(1, 6)) {
		t.Fatalf("restored window times = %v, want [1..5]", got)
	}
	if err := second.terminate(t); err != nil {
		t.Fatalf("receiver exit on SIGTERM: %v; log:\n%s", err, second.log)
	}
}

// TestTopologySmoke builds the node → rack → cluster tree out of three
// receivers: two shards -forward into one root.  The first half of a
// stream lands on shard 1, which is then SIGKILLed; the second half
// rides shard 2, and the root's window must still be complete.
func TestTopologySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the agent binary")
	}
	bin := buildAgent(t)
	root := startAgent(t, bin, []string{"-receiver", "127.0.0.1:0", "-log-format", "json"}, "receiver listening")
	shardArgs := []string{"-receiver", "127.0.0.1:0", "-forward", "push:" + root.base + "/ingest", "-log-format", "json"}
	shard1 := startAgent(t, bin, shardArgs, "receiver listening")
	shard2 := startAgent(t, bin, shardArgs, "receiver listening")

	ingestRange(t, shard1.base, 1, 6)
	waitFor(t, "the root holds the first half [1..5]", func() bool {
		return slices.Equal(pointTimes(queryPoints(t, root.base, 0)), span(1, 6))
	})
	shard1.kill()
	ingestRange(t, shard2.base, 6, 11)
	waitFor(t, "the root holds the whole window [1..10]", func() bool {
		return slices.Equal(pointTimes(queryPoints(t, root.base, 0)), span(1, 11))
	})

	var status struct{ Metrics []struct{ Name string } }
	getJSON(t, shard2.base+"/status", &status)
	names := map[string]bool{}
	for _, m := range status.Metrics {
		names[m.Name] = true
	}
	for _, want := range []string{"likwid_cluster_target_healthy", "likwid_cluster_target_sent_total"} {
		if !names[want] {
			t.Errorf("surviving shard's /status lacks %s", want)
		}
	}
	for _, p := range []*agentProc{shard2, root} {
		if err := p.terminate(t); err != nil {
			t.Fatalf("receiver exit on SIGTERM: %v; log:\n%s", err, p.log)
		}
	}
}

// TestAgentModeSmoke pins agent mode end to end: an agent pushes v4 to
// a labelling, deriving receiver that forwards to a root.  The root
// must hold the agent's hardware series under the agent's source with
// both label sets, and the receiver's own self and derived series under
// the receiver's push identity (the path that bypasses /ingest).  The
// agent exits 0 at -duration, the receiver 0 on SIGTERM after draining.
//
// The self collector ticks every 10 s, so the agent runs long enough
// for one self tick to reach its /metrics.
func TestAgentModeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the agent binary")
	}
	bin := buildAgent(t)
	deriveFile := filepath.Join(t.TempDir(), "fleet.derive")
	if err := os.WriteFile(deriveFile, []byte("fleet_bw = sum(memory_bandwidth_mbytes_s) over 5s every 500ms\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	root := startAgent(t, bin, []string{"-receiver", "127.0.0.1:0"}, "receiver listening")
	recv := startAgent(t, bin, []string{
		"-receiver", "127.0.0.1:0", "-labels", "cluster=emmy", "-derive", deriveFile,
		"-forward", "pushv4:" + root.base,
	}, "receiver listening")
	agent := startAgent(t, bin, []string{
		"-a", "westmereEP", "-i", "100ms", "-duration", "12s", "-labels", "job=lbm",
		"-sink", "pushv4:" + recv.base, "-sink", "http:127.0.0.1:0",
	}, "http sink listening")

	waitFor(t, "the agent's /metrics lists its self series", func() bool {
		_, body := getBody(t, agent.base+"/metrics")
		return strings.Contains(body, `source="self"`)
	})
	if err := agent.wait(t, 20*time.Second); err != nil {
		t.Fatalf("agent exit at -duration: %v; log:\n%s", err, agent.log)
	}

	agentSource, recvSource := pushSource(agent), pushSource(recv)
	hw := url.Values{"source": {agentSource}, "metric": {"memory_bandwidth_mbytes_s"}, "scope": {"node"}, "id": {"0"},
		"label.job": {"lbm"}, "label.cluster": {"emmy"}}
	waitFor(t, "the root holds the agent's series labelled job=lbm,cluster=emmy", func() bool {
		return len(querySeries(t, root.base, hw)) > 0
	})
	for _, s := range querySeries(t, root.base, hw) {
		if want := map[string]string{"job": "lbm", "cluster": "emmy"}; !maps.Equal(s.Labels, want) {
			t.Errorf("root series %s labels = %v, want %v", s.Metric, s.Labels, want)
		}
	}
	self := url.Values{"source": {recvSource}, "metric": {"likwid_*"}, "scope": {"node"}, "id": {"0"}}
	waitFor(t, "the root holds the receiver's self series", func() bool {
		return len(querySeries(t, root.base, self)) > 0
	})
	derived := url.Values{"source": {recvSource}, "metric": {"fleet_bw"}, "scope": {"node"}, "id": {"0"}}
	waitFor(t, "the root holds the receiver's derived series", func() bool {
		return len(querySeries(t, root.base, derived)) > 0
	})
	for _, p := range []*agentProc{recv, root} {
		if err := p.terminate(t); err != nil {
			t.Fatalf("receiver exit on SIGTERM: %v; log:\n%s", err, p.log)
		}
	}
}

// pushSource is the push identity a process stamps on the wire
// (hostname-pid, as monitor.DefaultPushSource builds it).
func pushSource(p *agentProc) string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "agent"
	}
	return fmt.Sprintf("%s-%d", host, p.cmd.Process.Pid)
}

type seriesEntry struct {
	Metric string
	Labels map[string]string
	Points []struct{ Time, Value float64 }
}

// querySeries runs a /query and returns the matched series that hold
// points: the fan-out's list, or the one series of an exact query.
func querySeries(t *testing.T, base string, q url.Values) []seriesEntry {
	t.Helper()
	var out struct {
		seriesEntry
		Series []seriesEntry
	}
	getJSON(t, base+"/query?"+q.Encode(), &out)
	if out.Series == nil {
		out.Series = []seriesEntry{out.seriesEntry}
	}
	return slices.DeleteFunc(out.Series, func(s seriesEntry) bool { return len(s.Points) == 0 })
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	code, body := getBody(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, code, body)
	}
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatalf("GET %s: %v in %q", url, err, body)
	}
}

// waitFor polls cond for up to 15 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func pointTimes(pts []struct{ Time, Value float64 }) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.Time
	}
	return out
}

// span returns the times [from, to).
func span(from, to int) []float64 {
	var out []float64
	for i := from; i < to; i++ {
		out = append(out, float64(i))
	}
	return out
}
