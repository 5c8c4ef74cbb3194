package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/node"
	"likwid/internal/pin"
)

// agentConfig is the parsed and validated likwid-agent configuration:
// the node's (validated by node.Config.Validate at parse time, so a typo
// fails fast) and the process's own run length and logging.
type agentConfig struct {
	node.Config
	duration time.Duration
	logLevel slog.Level // -log-level, parsed
	logJSON  bool       // -log-format json
}

// parseAgentFlags parses argv (without the program name) into a
// validated configuration.  Usage and errors are written to errOut.
func parseAgentFlags(args []string, errOut io.Writer) (*agentConfig, error) {
	cfg := &agentConfig{}
	c := &cfg.Config
	fs := flag.NewFlagSet("likwid-agent", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&c.Arch, "a", "westmereEP", "node architecture")
	cpuList := fs.String("c", "", "processors to monitor (default: all)")
	fs.StringVar(&c.Group, "g", "MEM_DP", "perfctr event group to sample")
	fs.DurationVar(&c.Interval, "i", 500*time.Millisecond, "sampling interval")
	fs.DurationVar(&cfg.duration, "duration", 0, "stop after this wall time (0 = until SIGINT)")
	collectorSet := fs.String("collectors", "", "comma-separated collectors (default: all registered)")
	fs.StringVar(&c.LoadSpec, "load", "stream", "background load: stream[:NTASKS] | idle")
	fs.IntVar(&c.Buffer, "buffer", 64, "sink queue depth")
	fs.IntVar(&c.Retain, "retain", 1024, "most raw points kept per series (the ring grows up to it)")
	tierSpec := fs.String("tiers", "", "downsampled retention tiers, e.g. 10s:360,1m:720")
	fs.BoolVar(&c.Raw, "raw", false, "emit per-event rates too")
	fs.StringVar(&c.Receiver, "receiver", "", "run as aggregation receiver on this listen address (no collectors)")
	fs.StringVar(&c.Forward, "forward", "", "receiver mode: re-push accepted samples upstream, push:[shard@|mirror@|failover@]URL[,URL...] — composes receivers into node→rack→cluster federation trees")
	fs.DurationVar(&c.ForwardEvery, "forward-downsample", 0, "average each forwarded series into windows of this width before re-pushing (0 = forward every point; needs -forward)")
	labelSpec := fs.String("labels", "", "label set stamped onto every sample, e.g. job=lbm,cluster=emmy (receiver mode: defaults merged under each ingested sample's own labels)")
	fs.DurationVar(&c.Adaptive, "adaptive", 0, "stretch unchanged collectors' intervals up to this cap (0 = off)")
	fs.StringVar(&c.RulesFile, "rules", "", "alerting rule file (one rule per line; see internal/alert)")
	fs.DurationVar(&c.GroupWait, "group-wait", 0, "coalesce alert events of one rule and state arriving within this window into a single grouped notification (0 = off; needs -rules)")
	fs.StringVar(&c.DeriveFile, "derive", "", "recorded-rule file: derived-series rules and ingest routes (see internal/derive)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug | info | warn | error")
	logFormat := fs.String("log-format", "text", "log encoding: text | json")
	fs.BoolVar(&c.Pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on every http sink and receiver")
	fs.StringVar(&c.WALDir, "wal", "", "durability directory: append WAL + periodic snapshots restore the store across restarts")
	fs.DurationVar(&c.SnapshotInterval, "snapshot-interval", time.Minute, "ring/tier snapshot period; the WAL truncates at each snapshot (needs -wal)")
	fs.Func("sink", "sink spec (repeatable): stdout | csv:PATH | jsonl:PATH | http:ADDR | push:URL | pushv4:URL; push/pushv4 also take a pool, push:[shard@|mirror@|failover@]URL,URL,...", func(v string) error { c.Sinks = append(c.Sinks, v); return nil })
	fs.Func("notify", "alert notifier spec (repeatable): stdout | jsonl:PATH | webhook:URL", func(v string) error { c.Notifiers = append(c.Notifiers, v); return nil })
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	// -snapshot-interval without -wal is a silent no-op; fail fast
	// instead.  fs.Visit sees only flags the user actually set, so the
	// default never trips this.
	var snapSet bool
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "snapshot-interval" {
			snapSet = true
		}
	})
	if snapSet && c.WALDir == "" {
		return nil, fmt.Errorf("-snapshot-interval needs -wal (no durability directory, nothing to snapshot)")
	}

	switch strings.ToLower(*logLevel) {
	case "debug":
		cfg.logLevel = slog.LevelDebug
	case "info":
		cfg.logLevel = slog.LevelInfo
	case "warn", "warning":
		cfg.logLevel = slog.LevelWarn
	case "error":
		cfg.logLevel = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (debug | info | warn | error)", *logLevel)
	}
	switch strings.ToLower(*logFormat) {
	case "text":
	case "json":
		cfg.logJSON = true
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text | json)", *logFormat)
	}
	if *collectorSet != "" {
		for _, name := range strings.Split(*collectorSet, ",") {
			c.Collectors = append(c.Collectors, strings.TrimSpace(name))
		}
	}
	var err error
	if c.Tiers, err = monitor.ParseTiers(*tierSpec); err != nil {
		return nil, err
	}
	if c.Labels, err = monitor.ParseLabelSpec(*labelSpec); err != nil {
		return nil, err
	}
	if *cpuList != "" {
		if c.CPUs, err = pin.ParseCPUList(*cpuList); err != nil {
			return nil, err
		}
	}
	if cfg.duration < 0 {
		return nil, fmt.Errorf("duration must not be negative, got %v", cfg.duration)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// newLogger builds the process logger from -log-level and -log-format.
func (c *agentConfig) newLogger(w io.Writer) *slog.Logger {
	opts := &slog.HandlerOptions{Level: c.logLevel}
	if c.logJSON {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}
