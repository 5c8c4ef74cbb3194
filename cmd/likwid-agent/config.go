package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"likwid"
	"likwid/internal/alert"
	"likwid/internal/derive"
	"likwid/internal/monitor"
	"likwid/internal/monitor/cluster"
	"likwid/internal/pin"
)

// agentConfig is the parsed and validated likwid-agent configuration.
// Everything checkable without side effects is validated at parse time
// (architecture, event group, CPU list, sink/load/tier spec shapes), so
// a typo fails fast instead of surfacing after collectors are up.
type agentConfig struct {
	arch         string
	group        string
	cpus         []int // nil = all
	interval     time.Duration
	duration     time.Duration
	collectors   []string // nil = all registered
	loadSpec     string
	buffer       int
	retain       int
	tiers        []monitor.Tier
	raw          bool
	sinks        []string
	receiver     string         // listen address; receiver mode when non-empty
	forward      string         // -forward: receiver re-push spec (federation hop)
	forwardEvery time.Duration  // -forward-downsample: per-hop averaging window
	labels       monitor.Labels // -labels: agent stamp / receiver ingest defaults
	adaptive     time.Duration
	rules        []*alert.Rule // parsed -rules file; nil = no alerting
	rulesFile    string
	groupWait    time.Duration         // -group-wait: alert grouping window; 0 = off
	deriveRules  []*derive.Rule        // parsed -derive file; nil with no routes = off
	deriveRoutes []monitor.IngestRoute // ingest routes of the -derive file
	deriveFile   string
	notifiers    []string   // -notify specs; default stdout when rules are set
	logLevel     slog.Level // -log-level, parsed
	logJSON      bool       // -log-format json
	pprof        bool       // -pprof: mount /debug/pprof/ on http sinks

	walDir           string        // -wal: durability state directory; empty = off
	snapshotInterval time.Duration // -snapshot-interval: ring/tier snapshot period

	// node is the simulated machine opened during validation, reused by
	// main so the group check and the monitored node agree.
	node *likwid.Node
}

// sinkSpecs collects repeated -sink flags.
type sinkSpecs []string

func (s *sinkSpecs) String() string { return strings.Join(*s, ",") }
func (s *sinkSpecs) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// parseAgentFlags parses argv (without the program name) into a
// validated configuration.  Usage and errors are written to errOut.
func parseAgentFlags(args []string, errOut io.Writer) (*agentConfig, error) {
	fs := flag.NewFlagSet("likwid-agent", flag.ContinueOnError)
	fs.SetOutput(errOut)
	arch := fs.String("a", "westmereEP", "node architecture")
	cpuList := fs.String("c", "", "processors to monitor (default: all)")
	group := fs.String("g", "MEM_DP", "perfctr event group to sample")
	interval := fs.Duration("i", 500*time.Millisecond, "sampling interval")
	duration := fs.Duration("duration", 0, "stop after this wall time (0 = until SIGINT)")
	collectorSet := fs.String("collectors", "", "comma-separated collectors (default: all registered)")
	loadSpec := fs.String("load", "stream", "background load: stream[:NTASKS] | idle")
	buffer := fs.Int("buffer", 64, "sink queue depth")
	retain := fs.Int("retain", 1024, "most raw points kept per series (the ring grows up to it)")
	tierSpec := fs.String("tiers", "", "downsampled retention tiers, e.g. 10s:360,1m:720")
	raw := fs.Bool("raw", false, "emit per-event rates too")
	receiver := fs.String("receiver", "", "run as aggregation receiver on this listen address (no collectors)")
	forward := fs.String("forward", "", "receiver mode: re-push accepted samples upstream, push:[shard@|mirror@|failover@]URL[,URL...] — composes receivers into node→rack→cluster federation trees")
	forwardEvery := fs.Duration("forward-downsample", 0, "average each forwarded series into windows of this width before re-pushing (0 = forward every point; needs -forward)")
	labelSpec := fs.String("labels", "", "label set stamped onto every sample, e.g. job=lbm,cluster=emmy (receiver mode: defaults merged under each ingested sample's own labels)")
	adaptive := fs.Duration("adaptive", 0, "stretch unchanged collectors' intervals up to this cap (0 = off)")
	rulesFile := fs.String("rules", "", "alerting rule file (one rule per line; see internal/alert)")
	groupWait := fs.Duration("group-wait", 0, "coalesce alert events of one rule and state arriving within this window into a single grouped notification (0 = off; needs -rules)")
	deriveFile := fs.String("derive", "", "recorded-rule file: derived-series rules and ingest routes (see internal/derive)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug | info | warn | error")
	logFormat := fs.String("log-format", "text", "log encoding: text | json")
	pprofFlag := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on every http sink and receiver")
	walDir := fs.String("wal", "", "durability directory: append WAL + periodic snapshots restore the store across restarts")
	snapInterval := fs.Duration("snapshot-interval", time.Minute, "ring/tier snapshot period; the WAL truncates at each snapshot (needs -wal)")
	var sinks sinkSpecs
	fs.Var(&sinks, "sink", "sink spec (repeatable): stdout | csv:PATH | jsonl:PATH | http:ADDR | push:URL | pushv4:URL; push/pushv4 also take a pool, push:[shard@|mirror@|failover@]URL,URL,...")
	var notifiers sinkSpecs
	fs.Var(&notifiers, "notify", "alert notifier spec (repeatable): stdout | jsonl:PATH | webhook:URL")
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
	if snapSet && *walDir == "" {
		return nil, fmt.Errorf("-snapshot-interval needs -wal (no durability directory, nothing to snapshot)")
	}

	cfg := &agentConfig{
		arch:         *arch,
		group:        *group,
		interval:     *interval,
		duration:     *duration,
		loadSpec:     *loadSpec,
		buffer:       *buffer,
		retain:       *retain,
		raw:          *raw,
		sinks:        sinks,
		receiver:     *receiver,
		forward:      *forward,
		forwardEvery: *forwardEvery,
		adaptive:     *adaptive,
		rulesFile:    *rulesFile,
		groupWait:    *groupWait,
		deriveFile:   *deriveFile,
		notifiers:    notifiers,
		pprof:        *pprofFlag,

		walDir:           *walDir,
		snapshotInterval: *snapInterval,
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
			cfg.collectors = append(cfg.collectors, strings.TrimSpace(name))
		}
	}
	var err error
	if cfg.tiers, err = monitor.ParseTiers(*tierSpec); err != nil {
		return nil, err
	}
	if cfg.labels, err = monitor.ParseLabelSpec(*labelSpec); err != nil {
		return nil, err
	}
	if cfg.rulesFile != "" {
		src, rerr := os.ReadFile(cfg.rulesFile)
		if rerr != nil {
			return nil, fmt.Errorf("rules file: %w", rerr)
		}
		if cfg.rules, err = alert.ParseRules(string(src)); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.rulesFile, err)
		}
		if len(cfg.rules) == 0 {
			return nil, fmt.Errorf("rules file %s defines no rules", cfg.rulesFile)
		}
	}
	if cfg.deriveFile != "" {
		src, derr := os.ReadFile(cfg.deriveFile)
		if derr != nil {
			return nil, fmt.Errorf("derive file: %w", derr)
		}
		if cfg.deriveRules, cfg.deriveRoutes, err = derive.ParseFile(string(src)); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.deriveFile, err)
		}
		if len(cfg.deriveRules) == 0 && len(cfg.deriveRoutes) == 0 {
			return nil, fmt.Errorf("derive file %s defines no rules or routes", cfg.deriveFile)
		}
	}
	if *cpuList != "" {
		if cfg.cpus, err = pin.ParseCPUList(*cpuList); err != nil {
			return nil, err
		}
	}
	if err := cfg.validate(); err != nil {
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

// validate cross-checks the configuration.  Receiver mode needs no
// machine: it only listens, so collector-side settings are skipped.
func (c *agentConfig) validate() error {
	if c.interval <= 0 {
		return fmt.Errorf("interval must be positive, got %v", c.interval)
	}
	if c.duration < 0 {
		return fmt.Errorf("duration must not be negative, got %v", c.duration)
	}
	if c.buffer <= 0 {
		return fmt.Errorf("sink queue depth must be positive, got %d", c.buffer)
	}
	if c.adaptive < 0 {
		return fmt.Errorf("adaptive cap must not be negative, got %v", c.adaptive)
	}
	if c.adaptive > 0 && c.adaptive < c.interval {
		return fmt.Errorf("adaptive cap %v is below the sampling interval %v", c.adaptive, c.interval)
	}
	if c.walDir != "" && c.snapshotInterval <= 0 {
		return fmt.Errorf("snapshot interval must be positive, got %v", c.snapshotInterval)
	}
	for _, spec := range c.sinks {
		// Multi-target push pools (shard@/mirror@/failover@, comma lists)
		// are cluster sink specs; single-URL push specs keep the plain
		// push sink's validation for backward compatibility.
		if cluster.IsSpec(spec) {
			if _, err := cluster.ParseSpec(spec); err != nil {
				return err
			}
			continue
		}
		if err := monitor.ValidateSinkSpec(spec); err != nil {
			return err
		}
	}
	if len(c.notifiers) > 0 && c.rulesFile == "" {
		return fmt.Errorf("-notify needs -rules (no rules, nothing to notify about)")
	}
	if c.groupWait < 0 {
		return fmt.Errorf("group wait must not be negative, got %v", c.groupWait)
	}
	if c.groupWait > 0 && c.rulesFile == "" {
		return fmt.Errorf("-group-wait needs -rules (no alerts, nothing to group)")
	}
	for _, spec := range c.notifiers {
		if err := alert.ValidateNotifierSpec(spec); err != nil {
			return err
		}
	}
	if c.forward != "" && c.receiver == "" {
		return fmt.Errorf("-forward needs -receiver (agents push with -sink push:URL; forwarding is the receiver-to-receiver hop)")
	}
	if c.forwardEvery < 0 {
		return fmt.Errorf("forward downsample window must not be negative, got %v", c.forwardEvery)
	}
	if c.forwardEvery > 0 && c.forward == "" {
		return fmt.Errorf("-forward-downsample needs -forward (nothing to downsample)")
	}
	if c.forward != "" {
		if _, err := cluster.ParseSpec(c.forward); err != nil {
			return err
		}
	}
	if c.receiver != "" {
		if len(c.sinks) > 0 {
			return fmt.Errorf("-receiver mode has no collectors to sink (-sink not allowed)")
		}
		return nil
	}

	node, err := likwid.Open(c.arch)
	if err != nil {
		return err
	}
	// A typo'd group is a configuration error, not a degraded collector:
	// fail fast instead of monitoring a node with no counters armed.
	if _, err := node.Group(c.group); err != nil {
		return err
	}
	c.node = node
	for _, cpu := range c.cpus {
		if cpu < 0 || cpu >= node.M.OS.NumCPUs() {
			return fmt.Errorf("cpu %d out of range (node has %d processors)", cpu, node.M.OS.NumCPUs())
		}
	}
	if _, _, err := parseLoadSpec(c.loadSpec); err != nil {
		return err
	}
	return nil
}

// reloadRules re-reads the -rules file and atomically swaps the
// engine's rule set — the SIGHUP / POST /rules/reload path.  Any error
// (unreadable file, parse error, empty file) leaves the running rules
// untouched, so a bad edit can never take alerting down.
func reloadRules(engine *alert.Engine, path string) (int, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("rules file: %w", err)
	}
	rules, err := alert.ParseRules(string(src))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	if len(rules) == 0 {
		return 0, fmt.Errorf("rules file %s defines no rules", path)
	}
	engine.Reload(rules)
	return len(rules), nil
}

// reloadDerive re-reads the -derive file, atomically swaps the engine's
// rule set, and returns the file's ingest routes for the caller to
// install on its HTTP sinks — the SIGHUP / POST /derive/reload path.
// Any error leaves the running rules and routes untouched.
func reloadDerive(engine *derive.Engine, path string) (rules int, routes []monitor.IngestRoute, err error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, fmt.Errorf("derive file: %w", err)
	}
	parsed, routes, err := derive.ParseFile(string(src))
	if err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(parsed) == 0 && len(routes) == 0 {
		return 0, nil, fmt.Errorf("derive file %s defines no rules or routes", path)
	}
	engine.Reload(parsed)
	return len(parsed), routes, nil
}

// parseLoadSpec validates a -load specification and returns its kind
// and task count (0 = the architecture default).
func parseLoadSpec(spec string) (kind string, nTasks int, err error) {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "idle":
		if arg != "" {
			return "", 0, fmt.Errorf("load spec %q: idle takes no argument", spec)
		}
		return kind, 0, nil
	case "stream":
		if arg == "" {
			return kind, 0, nil
		}
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 {
			return "", 0, fmt.Errorf("bad load task count %q", arg)
		}
		return kind, n, nil
	default:
		return "", 0, fmt.Errorf("unknown load spec %q (stream[:NTASKS], idle)", spec)
	}
}
