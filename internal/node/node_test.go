package node

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"likwid/internal/monitor"
)

// syncBuffer is a log destination the node's goroutines may share.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// receiverConfig is `likwid-agent -receiver 127.0.0.1:0` with the flag
// defaults that apply to a receiver.
func receiverConfig() Config {
	return Config{Receiver: "127.0.0.1:0", Interval: 500 * time.Millisecond, Buffer: 64, Retain: 1024}
}

func mustNew(t *testing.T, cfg Config, log *slog.Logger) *Node {
	t.Helper()
	n, err := New(cfg, log)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return n
}

func bwKey(source string) monitor.Key {
	return monitor.Key{Source: source, Metric: "memory_bandwidth_mbytes_s", Scope: monitor.ScopeNode, ID: 0}
}

// TestReceiverForwardDrainsAndRecovers: a -wal receiver forwarding to a
// root.  Every sample pushed to it before Close is at the root when
// Close returns — the forward hop drains after the listener is down —
// and a node reopened on the state directory recovers them.  The
// receiver's derived series reach the root through the forward tee.
func TestReceiverForwardDrainsAndRecovers(t *testing.T) {
	root := mustNew(t, receiverConfig(), quiet)
	defer root.Close()
	cfg := receiverConfig()
	cfg.Forward = "push:" + root.Addr()
	cfg.WALDir = t.TempDir()
	cfg.SnapshotInterval = time.Hour
	cfg.DeriveFile = writeRules(t, "fleet_bw = sum(memory_bandwidth_mbytes_s) over 60s every 10ms\n")
	recv := mustNew(t, cfg, quiet)

	push, err := monitor.NewPushSink(monitor.PushOptions{
		URL: "http://" + recv.Addr() + "/ingest", FlushSamples: 1, Source: "agent",
	})
	if err != nil {
		t.Fatal(err)
	}
	const ticks = 20
	for i := 0; i < ticks; i++ {
		err := push.Write(monitor.Batch{Collector: "perfgroup", Time: float64(i), Samples: []monitor.Sample{
			{Metric: "memory_bandwidth_mbytes_s", Scope: monitor.ScopeNode, Time: float64(i), Value: float64(i)},
		}})
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := push.Close(); err != nil {
		t.Fatal(err)
	}
	derived := monitor.Key{Source: monitor.DefaultPushSource(), Metric: "fleet_bw", Scope: monitor.ScopeNode}
	for deadline := time.Now().Add(10 * time.Second); len(root.Store().Window(derived, 0, -1)) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the receiver's derived series never reached the root")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := recv.Close(); err != nil {
		t.Fatalf("receiver Close: %v", err)
	}
	if got := len(root.Store().Window(bwKey("agent"), 0, -1)); got != ticks {
		t.Fatalf("root holds %d of %d forwarded points right after the receiver closed", got, ticks)
	}

	reopened := mustNew(t, cfg, quiet)
	defer reopened.Close()
	if got := len(reopened.Store().Window(bwKey("agent"), 0, -1)); got != ticks {
		t.Fatalf("reopened receiver recovered %d of %d points", got, ticks)
	}
}

// TestAgentNodeRuns: an agent node on westmereEP samples MEM_DP over a
// few intervals into CSV, a push sink and a push pool, serves its rule
// engines' endpoints and reloads both rule files.
func TestAgentNodeRuns(t *testing.T) {
	recv := mustNew(t, receiverConfig(), quiet)
	defer recv.Close()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	logs := &syncBuffer{}
	n := mustNew(t, Config{
		Arch: "westmereEP", Group: "MEM_DP", Interval: 20 * time.Millisecond, LoadSpec: "stream",
		Buffer: 64, Retain: 1024, Collectors: []string{"perfgroup"}, Pprof: true,
		Sinks: []string{"csv:" + csvPath, "http:127.0.0.1:0",
			"push:" + recv.Addr(), "pushv4:failover@" + recv.Addr()},
		RulesFile: writeRules(t, "bw: avg(memory_bandwidth_mbytes_s, node, 1s) > 1 for 0s\n"),
		Notifiers: []string{"jsonl:" + filepath.Join(dir, "alerts.jsonl")},
		GroupWait: 10 * time.Millisecond,
		// A derive file of routes only: no rule, but the POST still reloads.
		DeriveFile: writeRules(t, "route drop */noise\n"),
	}, slog.New(slog.NewTextHandler(logs, nil)))

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- n.Run(ctx) }()

	base := "http://" + n.Addr()
	for _, path := range []string{"/rules/reload", "/derive/reload"} {
		resp, err := http.Post(base+path, "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.HasPrefix(string(body), `{"rules":`) {
			t.Errorf("POST %s = %d %q", path, resp.StatusCode, body)
		}
	}
	for _, path := range []string{"/debug/pprof/", "/derive", "/alerts", "/status"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	n.Reload("test")

	if err := <-ran; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	src, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	times := map[string]bool{}
	for _, row := range strings.Split(strings.TrimSpace(string(src)), "\n")[1:] {
		if strings.Contains(row, "memory_bandwidth_mbytes_s") {
			times[strings.SplitN(row, ",", 2)[0]] = true
		}
	}
	if len(times) < 3 {
		t.Fatalf("CSV holds memory bandwidth at %d sample times, want >= 3:\n%s", len(times), src)
	}
	if len(recv.Store().Window(bwKey(monitor.DefaultPushSource()), 0, -1)) == 0 {
		t.Error("the receiver holds none of the agent's pushed memory bandwidth")
	}
	for _, want := range []string{"monitoring started", "rules reloaded", "derive reloaded", "trigger=test",
		"collector finished", "push sink finished", "cluster target finished", "alerting stopped"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, logs)
		}
	}
}

// TestCloseWithoutRun: a node that never ran closes cleanly and gives
// its listener back.
func TestCloseWithoutRun(t *testing.T) {
	for name, cfg := range map[string]Config{
		"receiver": receiverConfig(),
		"agent": {Arch: "westmereEP", Group: "MEM_DP", Interval: time.Second, LoadSpec: "idle",
			Buffer: 64, Retain: 64, Sinks: []string{"http:127.0.0.1:0"}},
	} {
		t.Run(name, func(t *testing.T) {
			n := mustNew(t, cfg, quiet)
			addr := n.Addr()
			if err := n.Close(); err != nil {
				t.Fatalf("Close without Run: %v", err)
			}
			listenAgain(t, addr)
		})
	}
}

// listenAgain fails unless addr can be listened on again right away:
// a closed node holds no port, and a leaked sink would.
func listenAgain(t *testing.T, addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("%s is still held after Close: %v", addr, err)
	}
	ln.Close()
}

// TestNewFailureReleases: a New that fails part way releases what it
// had built, so the port of an earlier http sink can be listened on
// again.
func TestNewFailureReleases(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	agent := Config{Arch: "westmereEP", Group: "MEM_DP", Interval: time.Second, LoadSpec: "stream",
		Buffer: 64, Retain: 64}
	alerting := receiverConfig()
	alerting.Receiver = addr
	alerting.RulesFile = writeRules(t, "bw: avg(memory_bandwidth_mbytes_s, node, 1s) > 1 for 0s\n")
	alerting.Notifiers = []string{"stdout", "jsonl:" + filepath.Join(t.TempDir(), "no", "such", "dir.jsonl")}
	for name, cfg := range map[string]Config{
		"second sink on the same port": func(c Config) Config {
			c.Sinks = []string{"http:" + addr, "http:" + addr}
			return c
		}(agent),
		"no collector after the sinks": func(c Config) Config {
			c.Sinks, c.Collectors = []string{"http:" + addr}, []string{"no_such_collector"}
			return c
		}(agent),
		"notifier after the listener": alerting,
	} {
		t.Run(name, func(t *testing.T) {
			if n, err := New(cfg, quiet); err == nil {
				n.Close()
				t.Fatal("New succeeded, want an error")
			}
			listenAgain(t, addr)
		})
	}
}
