package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"likwid/internal/monitor"
)

// writeRules drops a rule file into a temp dir and returns its path.
func writeRules(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "alerts.rules")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseAgentFlags(t *testing.T) {
	tests := []struct {
		name    string
		args    []string
		wantErr string // substring of the expected error; "" = success
		check   func(t *testing.T, cfg *agentConfig)
	}{
		{
			name: "defaults",
			args: nil,
			check: func(t *testing.T, cfg *agentConfig) {
				if cfg.Arch != "westmereEP" || cfg.Group != "MEM_DP" {
					t.Errorf("defaults = %s/%s, want westmereEP/MEM_DP", cfg.Arch, cfg.Group)
				}
				if cfg.Interval != 500*time.Millisecond || cfg.Retain != 1024 {
					t.Errorf("interval=%v retain=%d, want 500ms/1024", cfg.Interval, cfg.Retain)
				}
				if cfg.Node == nil {
					t.Error("validation must open the node for reuse")
				}
				if len(cfg.Tiers) != 0 {
					t.Errorf("tiers = %v, want none by default", cfg.Tiers)
				}
			},
		},
		{
			name: "full agent spec",
			args: []string{"-a", "istanbul", "-g", "MEM_DP", "-c", "0-3", "-i", "250ms",
				"-tiers", "10s:360,1m:720", "-sink", "csv:/tmp/x.csv", "-sink", "push:collector:8090",
				"-collectors", "perfgroup, membw", "-load", "stream:2"},
			check: func(t *testing.T, cfg *agentConfig) {
				if len(cfg.CPUs) != 4 || cfg.CPUs[3] != 3 {
					t.Errorf("cpus = %v, want 0..3", cfg.CPUs)
				}
				if len(cfg.Tiers) != 2 || cfg.Tiers[0].Resolution != 10 || cfg.Tiers[1].Capacity != 720 {
					t.Errorf("tiers = %+v, want 10s:360,1m:720", cfg.Tiers)
				}
				if len(cfg.Collectors) != 2 || cfg.Collectors[1] != "membw" {
					t.Errorf("collectors = %v, want [perfgroup membw]", cfg.Collectors)
				}
				if len(cfg.Sinks) != 2 {
					t.Errorf("sinks = %v, want 2 specs", cfg.Sinks)
				}
			},
		},
		{
			name: "receiver mode skips machine validation",
			args: []string{"-receiver", ":8090", "-g", "NO_SUCH_GROUP", "-tiers", "10s:60"},
			check: func(t *testing.T, cfg *agentConfig) {
				if cfg.Receiver != ":8090" {
					t.Errorf("receiver = %q", cfg.Receiver)
				}
				if cfg.Node != nil {
					t.Error("receiver mode must not open a node")
				}
			},
		},
		{name: "bad arch", args: []string{"-a", "pentium4"}, wantErr: "pentium4"},
		{name: "bad group", args: []string{"-g", "NOT_A_GROUP"}, wantErr: "NOT_A_GROUP"},
		{name: "bad cpu list", args: []string{"-c", "0-x"}, wantErr: "0-x"},
		{name: "cpu out of range", args: []string{"-c", "900"}, wantErr: "out of range"},
		{name: "bad flag", args: []string{"-bogus"}, wantErr: "bogus"},
		{name: "positional junk", args: []string{"extra"}, wantErr: "unexpected arguments"},
		{name: "zero interval", args: []string{"-i", "0s"}, wantErr: "interval"},
		{name: "negative duration", args: []string{"-duration", "-1s"}, wantErr: "duration"},
		{name: "zero buffer", args: []string{"-buffer", "0"}, wantErr: "queue depth"},
		{name: "bad sink kind", args: []string{"-sink", "kafka:topic"}, wantErr: "unknown sink kind"},
		{name: "csv sink without path", args: []string{"-sink", "csv"}, wantErr: "file path"},
		{name: "push sink without host", args: []string{"-sink", "push:"}, wantErr: "receiver URL"},
		{name: "push sink bad scheme", args: []string{"-sink", "push:ftp://h/ingest"}, wantErr: "http or https"},
		{name: "bad load kind", args: []string{"-load", "spin"}, wantErr: "unknown load spec"},
		{name: "bad load count", args: []string{"-load", "stream:zero"}, wantErr: "task count"},
		{name: "negative load count", args: []string{"-load", "stream:-2"}, wantErr: "task count"},
		{name: "idle load with argument", args: []string{"-load", "idle:3"}, wantErr: "no argument"},
		{name: "tier missing capacity", args: []string{"-tiers", "10s"}, wantErr: "RESOLUTION:CAPACITY"},
		{name: "tier bad resolution", args: []string{"-tiers", "ten:5"}, wantErr: "resolution"},
		{name: "tier zero capacity", args: []string{"-tiers", "10s:0"}, wantErr: "capacity"},
		{name: "tiers not ascending", args: []string{"-tiers", "1m:10,10s:10"}, wantErr: "ascend"},
		{name: "receiver with sink", args: []string{"-receiver", ":8090", "-sink", "stdout"}, wantErr: "-sink not allowed"},
		{
			name: "cluster sink pool",
			args: []string{"-sink", "push:shard@http://r1:8090,http://r2:8090"},
			check: func(t *testing.T, cfg *agentConfig) {
				if len(cfg.Sinks) != 1 || !strings.Contains(cfg.Sinks[0], "shard@") {
					t.Errorf("sinks = %v, want the cluster pool spec kept verbatim", cfg.Sinks)
				}
			},
		},
		{name: "cluster sink duplicate target", args: []string{"-sink", "push:http://r1:8090/ingest,http://r1:8090"}, wantErr: "twice"},
		{name: "cluster sink bad policy", args: []string{"-sink", "push:quorum@http://r1:8090,http://r2:8090"}, wantErr: "unknown policy"},
		{
			name: "forward federation hop",
			args: []string{"-receiver", ":8090", "-forward", "pushv4:mirror@http://root-a:9000,http://root-b:9000", "-forward-downsample", "10s"},
			check: func(t *testing.T, cfg *agentConfig) {
				if cfg.Forward == "" || cfg.ForwardEvery != 10*time.Second {
					t.Errorf("forward = %q every = %v, want the spec and 10s", cfg.Forward, cfg.ForwardEvery)
				}
			},
		},
		{name: "forward without receiver", args: []string{"-forward", "push:http://root:9000"}, wantErr: "needs -receiver"},
		{name: "forward downsample without forward", args: []string{"-receiver", ":8090", "-forward-downsample", "10s"}, wantErr: "needs -forward"},
		{name: "negative forward downsample", args: []string{"-receiver", ":8090", "-forward", "push:http://root:9000", "-forward-downsample", "-1s"}, wantErr: "not be negative"},
		{name: "forward bad spec", args: []string{"-receiver", ":8090", "-forward", "push:"}, wantErr: "empty target"},
		{name: "adaptive below interval", args: []string{"-i", "500ms", "-adaptive", "100ms"}, wantErr: "below the sampling interval"},
		{name: "negative adaptive", args: []string{"-adaptive", "-1s"}, wantErr: "not be negative"},
		{name: "notify without rules", args: []string{"-notify", "stdout"}, wantErr: "needs -rules"},
		{name: "snapshot interval without wal", args: []string{"-snapshot-interval", "30s"}, wantErr: "needs -wal"},
		{name: "zero snapshot interval", args: []string{"-wal", "/tmp/x", "-snapshot-interval", "0s"}, wantErr: "snapshot interval"},
		{
			name: "wal durability",
			args: []string{"-receiver", ":8090", "-wal", "/var/lib/likwid", "-snapshot-interval", "30s"},
			check: func(t *testing.T, cfg *agentConfig) {
				if cfg.WALDir != "/var/lib/likwid" || cfg.SnapshotInterval != 30*time.Second {
					t.Errorf("wal = %q interval = %v, want /var/lib/likwid and 30s", cfg.WALDir, cfg.SnapshotInterval)
				}
			},
		},
		{
			name: "wal defaults to one-minute snapshots",
			args: []string{"-receiver", ":8090", "-wal", "/var/lib/likwid"},
			check: func(t *testing.T, cfg *agentConfig) {
				if cfg.SnapshotInterval != time.Minute {
					t.Errorf("snapshot interval = %v, want 1m default", cfg.SnapshotInterval)
				}
			},
		},
		{name: "bad notifier kind", args: []string{"-rules", "x", "-notify", "pagerduty:key"}, wantErr: "rules file"},
		{name: "missing rules file", args: []string{"-rules", "/no/such/file.rules"}, wantErr: "rules file"},
		{
			name: "labels stamp",
			args: []string{"-labels", "job=lbm,cluster=emmy"},
			check: func(t *testing.T, cfg *agentConfig) {
				if got := cfg.Labels.String(); got != "cluster=emmy,job=lbm" {
					t.Errorf("labels = %q, want the canonical cluster=emmy,job=lbm", got)
				}
			},
		},
		{
			name: "receiver labels as ingest defaults",
			args: []string{"-receiver", ":8090", "-labels", "cluster=emmy"},
			check: func(t *testing.T, cfg *agentConfig) {
				if v, ok := cfg.Labels.Get("cluster"); !ok || v != "emmy" {
					t.Errorf("receiver labels = %q, want cluster=emmy", cfg.Labels)
				}
			},
		},
		{name: "labels missing value", args: []string{"-labels", "job"}, wantErr: "name=value"},
		{name: "labels bad name", args: []string{"-labels", "1job=x"}, wantErr: "bad label name"},
		{name: "labels duplicate", args: []string{"-labels", "job=a,job=b"}, wantErr: "duplicate label"},
		{
			name: "logging and pprof defaults",
			args: nil,
			check: func(t *testing.T, cfg *agentConfig) {
				if cfg.logLevel != slog.LevelInfo || cfg.logJSON || cfg.Pprof {
					t.Errorf("defaults = level %v json %v pprof %v, want info/text/off",
						cfg.logLevel, cfg.logJSON, cfg.Pprof)
				}
			},
		},
		{
			name: "logging flags",
			args: []string{"-log-level", "Debug", "-log-format", "json", "-pprof"},
			check: func(t *testing.T, cfg *agentConfig) {
				if cfg.logLevel != slog.LevelDebug || !cfg.logJSON || !cfg.Pprof {
					t.Errorf("got level %v json %v pprof %v, want debug/json/on",
						cfg.logLevel, cfg.logJSON, cfg.Pprof)
				}
			},
		},
		{
			name: "log level warning alias",
			args: []string{"-log-level", "warning"},
			check: func(t *testing.T, cfg *agentConfig) {
				if cfg.logLevel != slog.LevelWarn {
					t.Errorf("level = %v, want warn", cfg.logLevel)
				}
			},
		},
		{name: "bad log level", args: []string{"-log-level", "verbose"}, wantErr: "unknown -log-level"},
		{name: "bad log format", args: []string{"-log-format", "logfmt"}, wantErr: "unknown -log-format"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg, err := parseAgentFlags(tt.args, io.Discard)
			if tt.wantErr != "" {
				if err == nil {
					t.Fatalf("parseAgentFlags(%v) succeeded, want error containing %q", tt.args, tt.wantErr)
				}
				if !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("error = %v, want substring %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseAgentFlags(%v) failed: %v", tt.args, err)
			}
			if tt.check != nil {
				tt.check(t, cfg)
			}
		})
	}
}

// TestNewLogger pins the -log-format encodings and the -log-level
// filter: a warn-level JSON logger drops info records and emits one
// well-formed JSON object per line.
func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	cfg := &agentConfig{logLevel: slog.LevelWarn, logJSON: true}
	log := cfg.newLogger(&buf)
	log.Info("hidden")
	log.Warn("shown", "sink", "push")
	out := strings.TrimSpace(buf.String())
	if strings.Contains(out, "hidden") {
		t.Fatalf("info record leaked through a warn-level logger: %q", out)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(out), &rec); err != nil {
		t.Fatalf("-log-format json emitted non-JSON %q: %v", out, err)
	}
	if rec["msg"] != "shown" || rec["sink"] != "push" {
		t.Fatalf("record = %v, want msg=shown sink=push", rec)
	}

	buf.Reset()
	cfg = &agentConfig{logLevel: slog.LevelInfo}
	cfg.newLogger(&buf).Info("text line", "collector", "perfgroup")
	if out := buf.String(); !strings.Contains(out, "msg=\"text line\"") || !strings.Contains(out, "collector=perfgroup") {
		t.Fatalf("-log-format text emitted %q, want slog text encoding", out)
	}
}

// TestParseAgentFlagsRules covers the -rules / -notify / -adaptive
// wiring that needs real files.
func TestParseAgentFlagsRules(t *testing.T) {
	good := writeRules(t, "mem_bw_low: avg(memory_bandwidth_mbytes_s, socket, 30s) < 2000 for 60s\n")
	cfg, err := parseAgentFlags([]string{"-rules", good, "-notify", "stdout",
		"-notify", "webhook:http://ops:9093/hook", "-adaptive", "8s"}, io.Discard)
	if err != nil {
		t.Fatalf("good rules rejected: %v", err)
	}
	if len(cfg.Rules) != 1 || cfg.Rules[0].Name != "mem_bw_low" {
		t.Errorf("rules = %+v, want mem_bw_low", cfg.Rules)
	}
	if len(cfg.Notifiers) != 2 {
		t.Errorf("notifiers = %v, want 2 specs", cfg.Notifiers)
	}
	if cfg.Adaptive != 8*time.Second {
		t.Errorf("adaptive = %v, want 8s", cfg.Adaptive)
	}

	// Receiver mode takes rules too: one receiver alerts over the fleet.
	cfg, err = parseAgentFlags([]string{"-receiver", ":0", "-rules", good}, io.Discard)
	if err != nil {
		t.Fatalf("receiver with rules rejected: %v", err)
	}
	if len(cfg.Rules) != 1 {
		t.Errorf("receiver rules = %+v, want 1", cfg.Rules)
	}

	// A bad rule fails fast with its file position.
	bad := writeRules(t, "ok: avg(bw, node, 1s) < 1 for 0s\nbroken: avg(bw, node) < 1 for 0s\n")
	if _, err := parseAgentFlags([]string{"-rules", bad}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "line 2:") {
		t.Errorf("bad rules error = %v, want a line 2 position", err)
	}

	// An empty rules file is a configuration error, not a silent no-op.
	empty := writeRules(t, "# nothing\n")
	if _, err := parseAgentFlags([]string{"-rules", empty}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "no rules") {
		t.Errorf("empty rules error = %v, want 'no rules'", err)
	}

	// Notifier specs are validated at parse time.
	if _, err := parseAgentFlags([]string{"-rules", good, "-notify", "pagerduty:key"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "unknown notifier kind") {
		t.Errorf("bad notifier error = %v, want 'unknown notifier kind'", err)
	}
}

func TestParseAgentFlagsDerive(t *testing.T) {
	good := writeRules(t, "cluster_flops = sum(flops_dp) by (source) over 30s\nroute drop */noise\n")
	cfg, err := parseAgentFlags([]string{"-derive", good}, io.Discard)
	if err != nil {
		t.Fatalf("good derive file rejected: %v", err)
	}
	if len(cfg.DeriveRules) != 1 || cfg.DeriveRules[0].Name != "cluster_flops" {
		t.Errorf("derive rules = %+v, want cluster_flops", cfg.DeriveRules)
	}
	if len(cfg.DeriveRoutes) != 1 || cfg.DeriveRoutes[0].Action != monitor.RouteDrop {
		t.Errorf("derive routes = %+v, want one drop", cfg.DeriveRoutes)
	}

	// Receiver mode takes a derive file too (that is its main home).
	if _, err := parseAgentFlags([]string{"-receiver", ":0", "-derive", good}, io.Discard); err != nil {
		t.Fatalf("receiver with derive rejected: %v", err)
	}

	// A parse error fails fast with its file position.
	bad := writeRules(t, "ok = sum(bw) over 30s\nbroken = frob(bw) over 30s\n")
	if _, err := parseAgentFlags([]string{"-derive", bad}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "line 2:") {
		t.Errorf("bad derive error = %v, want a line 2 position", err)
	}

	// An empty derive file is a configuration error, not a silent no-op.
	empty := writeRules(t, "# nothing\n")
	if _, err := parseAgentFlags([]string{"-derive", empty}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "no rules or routes") {
		t.Errorf("empty derive error = %v, want 'no rules or routes'", err)
	}
}

func TestParseAgentFlagsGroupWait(t *testing.T) {
	rules := writeRules(t, "low: avg(bw, node, 10s) < 1 for 0s\n")
	cfg, err := parseAgentFlags([]string{"-rules", rules, "-group-wait", "30s"}, io.Discard)
	if err != nil {
		t.Fatalf("group-wait with rules rejected: %v", err)
	}
	if cfg.GroupWait != 30*time.Second {
		t.Errorf("groupWait = %v, want 30s", cfg.GroupWait)
	}
	// Grouping without alerting is a configuration error.
	if _, err := parseAgentFlags([]string{"-group-wait", "30s"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "-group-wait needs -rules") {
		t.Errorf("group-wait without rules error = %v, want '-group-wait needs -rules'", err)
	}
	if _, err := parseAgentFlags([]string{"-rules", rules, "-group-wait", "-5s"}, io.Discard); err == nil ||
		!strings.Contains(err.Error(), "not be negative") {
		t.Errorf("negative group-wait error = %v, want 'not be negative'", err)
	}
}
