// Package monitor turns the one-shot tool suite into a continuous
// node-monitoring agent, after the LIKWID Monitoring Stack (Röhl et al.,
// arXiv:1708.01476) and ClusterCockpit's cc-metric-collector: collectors
// wrap the existing tools (perfctr groups, topology, features, memsys) and
// sample on an interval, a scheduler runs them concurrently with error
// backoff, samples land in a ring-buffer time-series store, are rolled up
// per topology domain (thread → core → socket → node), and fan out
// asynchronously to pluggable sinks (table, CSV, JSON lines, HTTP).
package monitor

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"time"
	"unicode"

	"likwid/internal/machine"
)

// Scope is the topology domain a sample describes.
type Scope int

const (
	// ScopeThread is one hardware thread (OS processor).
	ScopeThread Scope = iota
	// ScopeCore is one physical core (SMT siblings merged).
	ScopeCore
	// ScopeSocket is one package with its shared uncore resources.
	ScopeSocket
	// ScopeNode is the whole shared-memory node.
	ScopeNode
)

var scopeNames = [...]string{"thread", "core", "socket", "node"}

// String returns the lowercase domain name.
func (s Scope) String() string {
	if s < 0 || int(s) >= len(scopeNames) {
		return fmt.Sprintf("scope(%d)", int(s))
	}
	return scopeNames[s]
}

// ParseScope resolves a domain name.
func ParseScope(name string) (Scope, error) {
	for i, n := range scopeNames {
		if n == name {
			return Scope(i), nil
		}
	}
	return 0, fmt.Errorf("monitor: unknown scope %q (thread, core, socket, node)", name)
}

// Sample is one measured value of one metric on one topology entity at one
// point of simulated time.
type Sample struct {
	// Source is the identity of the agent the sample came from; empty
	// for samples collected on this node.  It is a first-class series
	// dimension, never folded into the metric name.
	Source string
	Metric string
	Scope  Scope
	ID     int // processor, core, or socket index; 0 for node scope
	// Labels is the sample's structured label set (job=lbm,
	// cluster=emmy) — the fleet-slicing dimensions beyond Source.  The
	// zero value is the empty set.
	Labels Labels
	Time   float64 // simulated seconds
	Value  float64
}

// Key identifies one time series in the store: which agent measured
// (Source, empty for local series), what was measured (Metric), where
// (Scope, ID), and under which label set (Labels, empty for unlabelled
// series).  Labels is an interned handle, so Key stays a comparable,
// cheaply hashable map key.
type Key struct {
	Source string
	Metric string
	Scope  Scope
	ID     int
	Labels Labels
}

// Key returns the sample's series identity.
func (s Sample) Key() Key {
	return Key{Source: s.Source, Metric: s.Metric, Scope: s.Scope, ID: s.ID, Labels: s.Labels}
}

// Batch is the output of one collector tick, forwarded to store and sinks
// as a unit so sinks can render one table / flush one block per read.
type Batch struct {
	Collector string
	Time      float64 // simulated seconds of the read
	Samples   []Sample
}

// Collector is one metric source.  Collect is called on the declared
// interval by the scheduler; it must return the full batch of samples for
// this tick.  Implementations are not required to be concurrency-safe:
// collectors sharing mutable state (the simulated machine) serialize
// through the mutex handed to their factory.
type Collector interface {
	Name() string
	Scope() Scope
	Interval() time.Duration
	Collect(ctx context.Context) ([]Sample, error)
}

// Config is the construction context handed to collector factories.
type Config struct {
	Machine *machine.Machine
	// MachineMu serializes machine access across concurrently scheduled
	// collectors (the simulated node, like real MSR device files, is not
	// reentrant).  Factories may ignore it for read-only sources.
	MachineMu *sync.Mutex
	// CPUs are the processors to monitor; empty means all.
	CPUs []int
	// Group is the perfctr event group for counter collectors.
	Group string
	// Interval is the sampling period for the built collector.
	Interval time.Duration
	// Advance moves simulated time forward by dt seconds under the
	// machine mutex; counter collectors call it before each read.  Nil
	// defaults to idling the machine (the "sleep" monitoring mode).
	Advance func(dt float64)
	// RawEvents also emits per-event rates (events/s) next to the group's
	// derived metrics.
	RawEvents bool
}

// cpusOrAll resolves the processor list.
func (c Config) cpusOrAll() []int {
	if len(c.CPUs) > 0 {
		return append([]int(nil), c.CPUs...)
	}
	all := make([]int, c.Machine.OS.NumCPUs())
	for i := range all {
		all[i] = i
	}
	return all
}

// Factory builds one collector from the shared config.
type Factory func(cfg Config) (Collector, error)

// Registry maps collector names to factories.
type Registry map[string]Factory

// Build constructs the named collector.
func (r Registry) Build(name string, cfg Config) (Collector, error) {
	f, ok := r[name]
	if !ok {
		return nil, fmt.Errorf("monitor: unknown collector %q (available: %s)",
			name, strings.Join(r.Names(), ", "))
	}
	return f(cfg)
}

// Names lists the registered collectors sorted.
func (r Registry) Names() []string {
	return slices.Sorted(maps.Keys(r))
}

// reservedNamespaces are the suite's own slash-namespaced metric
// families.  A leading "event/", "topo/", "feature/", "membw/" or
// "alert/" is part of the metric name, never an agent source label.
var reservedNamespaces = map[string]bool{
	"alert":   true,
	"event":   true,
	"feature": true,
	"membw":   true,
	"topo":    true,
}

// ReservedNamespace reports whether seg is one of the suite's metric
// namespaces rather than a plausible source label.
func ReservedNamespace(seg string) bool { return reservedNamespaces[seg] }

// WildcardMatch matches a pattern whose '*' runs match any characters
// (including '/'), the selector idiom shared by the alert DSL and the
// /query source parameter.
func WildcardMatch(pattern, s string) bool {
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == s
	}
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	for _, part := range parts[1 : len(parts)-1] {
		idx := strings.Index(s, part)
		if idx < 0 {
			return false
		}
		s = s[idx+len(part):]
	}
	return strings.HasSuffix(s, parts[len(parts)-1])
}

// MatchSource reports whether a source selector picks a series source.
// An empty pattern selects only local (sourceless) series; '*'
// wildcards match across the fleet, the empty local source included.
func MatchSource(pattern, source string) bool {
	if strings.Contains(pattern, "*") {
		return WildcardMatch(pattern, source)
	}
	return pattern == source
}

// MatchMetric reports whether a metric selector picks a series metric:
// exact match, '*' wildcards (against the raw name), or sanitized-form
// equality so a flat selector ("memory_bandwidth_mbytes_s") finds the
// display-named series ("Memory bandwidth [MBytes/s]").  The selector
// idiom shared by the alert DSL, the derive DSL, ingest routes and the
// /query metric parameter.
func MatchMetric(pattern, name string) bool {
	if pattern == name {
		return true
	}
	if strings.Contains(pattern, "*") {
		return WildcardMatch(pattern, name)
	}
	return SanitizeMetric(name) == SanitizeMetric(pattern)
}

// SanitizeMetric converts a display metric name ("DP MFlops/s",
// "Memory bandwidth [MBytes/s]") into a flat series name
// ("dp_mflops_s", "memory_bandwidth_mbytes_s") usable in CSV headers and
// the HTTP exposition format.
func SanitizeMetric(name string) string {
	if exposition(name) {
		return name
	}
	var b strings.Builder
	lastUnderscore := true // trim leading separators
	for _, r := range strings.ToLower(name) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(r)
			lastUnderscore = false
		default:
			if !lastUnderscore {
				b.WriteByte('_')
				lastUnderscore = true
			}
		}
	}
	return strings.TrimRight(b.String(), "_")
}

// exposition reports whether name is already in SanitizeMetric's output
// form: runs of [a-z0-9] joined by single '_'.  Checking is cheaper than
// rebuilding, and stored series are mostly named this way already.
func exposition(name string) bool {
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		case c == '_' && i > 0 && i < len(name)-1 && name[i-1] != '_':
		default:
			return false
		}
	}
	return true
}
