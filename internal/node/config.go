package node

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"likwid"
	"likwid/internal/alert"
	"likwid/internal/derive"
	"likwid/internal/monitor"
	"likwid/internal/monitor/cluster"
)

// Config is one node's configuration: the likwid-agent flag set without
// the process-level settings (run length and logging).  Everything
// checkable before anything starts is validated by Validate (rule files,
// architecture, event group, CPU list, sink/load/forward spec shapes),
// so a typo fails fast instead of surfacing after collectors are up.
type Config struct {
	Arch         string
	Group        string
	CPUs         []int // nil = all
	Interval     time.Duration
	Collectors   []string // nil = all registered
	LoadSpec     string
	Buffer       int
	Retain       int
	Tiers        []monitor.Tier
	Raw          bool
	Sinks        []string
	Receiver     string         // listen address; receiver mode when non-empty
	Forward      string         // -forward: receiver re-push spec (federation hop)
	ForwardEvery time.Duration  // -forward-downsample: per-hop averaging window
	Labels       monitor.Labels // -labels: agent stamp / receiver ingest defaults
	Adaptive     time.Duration
	RulesFile    string
	Rules        []*alert.Rule // parsed from RulesFile by Validate
	GroupWait    time.Duration // -group-wait: alert grouping window; 0 = off
	DeriveFile   string
	DeriveRules  []*derive.Rule        // parsed from DeriveFile by Validate
	DeriveRoutes []monitor.IngestRoute // ingest routes of DeriveFile, parsed by Validate
	Notifiers    []string              // -notify specs; default stdout when rules are set
	Pprof        bool                  // -pprof: mount /debug/pprof/ on http sinks

	WALDir           string        // -wal: durability state directory; empty = off
	SnapshotInterval time.Duration // -snapshot-interval: ring/tier snapshot period

	// Node is the simulated machine an agent monitors, opened by Validate
	// when nil, so the group check and the monitored node agree.  Its
	// collectors own it: two agent nodes must not share one.
	Node *likwid.Node
}

// Validate cross-checks the configuration.  Receiver mode needs no
// machine: it only listens, so collector-side settings are skipped.
func (c *Config) Validate() error {
	var err error
	if c.RulesFile != "" {
		if c.Rules, err = loadRules(c.RulesFile); err != nil {
			return err
		}
	}
	if c.DeriveFile != "" {
		if c.DeriveRules, c.DeriveRoutes, err = loadDerive(c.DeriveFile); err != nil {
			return err
		}
	}
	if c.Interval <= 0 {
		return fmt.Errorf("interval must be positive, got %v", c.Interval)
	}
	if c.Buffer <= 0 {
		return fmt.Errorf("sink queue depth must be positive, got %d", c.Buffer)
	}
	if c.Adaptive < 0 {
		return fmt.Errorf("adaptive cap must not be negative, got %v", c.Adaptive)
	}
	if c.Adaptive > 0 && c.Adaptive < c.Interval {
		return fmt.Errorf("adaptive cap %v is below the sampling interval %v", c.Adaptive, c.Interval)
	}
	if c.WALDir != "" && c.SnapshotInterval <= 0 {
		return fmt.Errorf("snapshot interval must be positive, got %v", c.SnapshotInterval)
	}
	for _, spec := range c.Sinks {
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
	if len(c.Notifiers) > 0 && c.RulesFile == "" {
		return fmt.Errorf("-notify needs -rules (no rules, nothing to notify about)")
	}
	if c.GroupWait < 0 {
		return fmt.Errorf("group wait must not be negative, got %v", c.GroupWait)
	}
	if c.GroupWait > 0 && c.RulesFile == "" {
		return fmt.Errorf("-group-wait needs -rules (no alerts, nothing to group)")
	}
	for _, spec := range c.Notifiers {
		if err := alert.ValidateNotifierSpec(spec); err != nil {
			return err
		}
	}
	if c.Forward != "" && c.Receiver == "" {
		return fmt.Errorf("-forward needs -receiver (agents push with -sink push:URL; forwarding is the receiver-to-receiver hop)")
	}
	if c.ForwardEvery < 0 {
		return fmt.Errorf("forward downsample window must not be negative, got %v", c.ForwardEvery)
	}
	if c.ForwardEvery > 0 && c.Forward == "" {
		return fmt.Errorf("-forward-downsample needs -forward (nothing to downsample)")
	}
	if c.Forward != "" {
		if _, err := cluster.ParseSpec(c.Forward); err != nil {
			return err
		}
	}
	if c.Receiver != "" {
		if len(c.Sinks) > 0 {
			return fmt.Errorf("-receiver mode has no collectors to sink (-sink not allowed)")
		}
		return nil
	}

	if c.Node == nil {
		if c.Node, err = likwid.Open(c.Arch); err != nil {
			return err
		}
	}
	// A typo'd group is a configuration error, not a degraded collector:
	// fail fast instead of monitoring a node with no counters armed.
	if _, err := c.Node.Group(c.Group); err != nil {
		return err
	}
	for _, cpu := range c.CPUs {
		if n := c.Node.M.OS.NumCPUs(); cpu < 0 || cpu >= n {
			return fmt.Errorf("cpu %d out of range (node has %d processors)", cpu, n)
		}
	}
	if _, _, err := parseLoadSpec(c.LoadSpec); err != nil {
		return err
	}
	return nil
}

// loadRules reads and parses a -rules file; a file without rules is an
// error, not a silent no-op.
func loadRules(path string) ([]*alert.Rule, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("rules file: %w", err)
	}
	rules, err := alert.ParseRules(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("rules file %s defines no rules", path)
	}
	return rules, nil
}

// loadDerive reads and parses a -derive file; a file without rules or
// routes is an error.
func loadDerive(path string) ([]*derive.Rule, []monitor.IngestRoute, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("derive file: %w", err)
	}
	rules, routes, err := derive.ParseFile(string(src))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rules) == 0 && len(routes) == 0 {
		return nil, nil, fmt.Errorf("derive file %s defines no rules or routes", path)
	}
	return rules, routes, nil
}

// reloadRules re-reads the -rules file and atomically swaps the
// engine's rule set — the SIGHUP / POST /rules/reload path.  Any error
// (unreadable file, parse error, empty file) leaves the running rules
// untouched, so a bad edit can never take alerting down.
func reloadRules(engine *alert.Engine, path string) (int, error) {
	rules, err := loadRules(path)
	if err != nil {
		return 0, err
	}
	engine.Reload(rules)
	return len(rules), nil
}

// reloadDerive re-reads the -derive file, atomically swaps the engine's
// rule set, and returns the file's ingest routes for the caller to
// install on its HTTP sinks — the SIGHUP / POST /derive/reload path.
// Any error leaves the running rules and routes untouched.
func reloadDerive(engine *derive.Engine, path string) (int, []monitor.IngestRoute, error) {
	rules, routes, err := loadDerive(path)
	if err != nil {
		return 0, nil, err
	}
	engine.Reload(rules)
	return len(rules), routes, nil
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
