// Package cluster turns the single-URL push transport into a fleet
// topology layer: a pool of receiver targets with per-target health
// checking, a consistent-hash ring partitioning series across the pool,
// and delivery policies — shard (horizontal scale-out), mirror (HA full
// stream), failover (ordered fallback).  It is the horizontal half of
// the "monitoring for the masses" architecture: agents push into a
// receiver pool instead of a single receiver, and receivers themselves
// re-push upward to form node → rack → cluster aggregation trees.
package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/telemetry"
)

// Policy selects how a batch is spread across the target pool.
type Policy int

const (
	// PolicyShard hash-partitions series across the healthy targets via
	// the consistent-hash ring: each interned Key has exactly one owner,
	// so a pool of N receivers each holds ~1/N of the fleet's series.
	PolicyShard Policy = iota
	// PolicyMirror sends the full stream to every target — the HA mode.
	// Unhealthy mirrors buffer (bounded) and catch up on recovery; the
	// receiver-side /query dedupe collapses the duplicate points.
	PolicyMirror
	// PolicyFailover sends everything to the first healthy target in
	// spec order — primary/standby with ordered fallback.
	PolicyFailover
)

// String returns the spec-grammar name of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyShard:
		return "shard"
	case PolicyMirror:
		return "mirror"
	case PolicyFailover:
		return "failover"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy maps a spec-grammar name to its Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "shard":
		return PolicyShard, nil
	case "mirror":
		return PolicyMirror, nil
	case "failover":
		return PolicyFailover, nil
	}
	return 0, fmt.Errorf("cluster: unknown policy %q (want shard, mirror or failover)", s)
}

// Options configure a cluster sink.  Zero values take the defaults
// noted per field.
type Options struct {
	// Targets are the receiver ingest URLs, in spec order (failover
	// preference order).  Required, at least one.
	Targets []string
	// Policy selects shard, mirror or failover (default shard).
	Policy Policy
	// Format selects the wire encoding per target (default WireJSON).
	Format monitor.WireFormat
	// Source labels sourceless samples with this agent's push identity,
	// exactly like PushOptions.Source.
	Source string
	// FlushSamples configures each per-target push sink (default 64;
	// see PushOptions).
	FlushSamples int
	// RetryBase is the per-target first retry backoff (default 100 ms).
	// With more than one target the per-target attempt count is capped
	// at one, so failover engages after a single failed POST instead of
	// walking the whole retry ladder against a dead receiver.
	RetryBase time.Duration
	// ProbeInterval re-checks a healthy target's /readyz this often
	// (default 2 s); ProbeBackoff is the first re-probe delay after a
	// failure, doubling up to probeBackoffMax (default 250 ms).
	ProbeInterval time.Duration
	ProbeBackoff  time.Duration
	// Context bounds retry backoffs and the probe loops.
	Context context.Context
	// Client is shared by the per-target push sinks; ProbeClient by the
	// health probes (default: a dedicated client with a 2 s timeout, so
	// a hung target cannot stall its prober for the push client's full
	// timeout).
	Client      *http.Client
	ProbeClient *http.Client
	// Now supplies the wall clock for sent_at stamps (default time.Now).
	Now func() time.Time
	// Logger receives health-transition and reroute warnings.
	Logger *slog.Logger
}

// probeBackoffMax caps a down target's re-probe delay: a dead target
// costs a cheap probe every few seconds.
const probeBackoffMax = 8 * time.Second

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeBackoff <= 0 {
		o.ProbeBackoff = 250 * time.Millisecond
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.ProbeClient == nil {
		o.ProbeClient = &http.Client{Timeout: 2 * time.Second}
	}
	return o
}

// target is one pool member: a push sink plus its health state.
type target struct {
	name     string // host:port, the telemetry label and ring member name
	url      string // ingest endpoint
	probeURL string // /readyz endpoint derived from url
	push     *monitor.PushSink

	healthy   atomic.Bool
	failovers atomic.Uint64 // reroutes away from this target
}

// Sink spreads batches across a receiver pool by policy, with
// health-checked membership.  It implements monitor.Sink and, like
// every sink, is driven by a single dispatcher goroutine: Write, Flush
// and Close never race each other.  The probe goroutines only flip the
// per-target health bits and rebuild the ring — they never touch the
// push sinks' buffers, so the single-goroutine discipline of PushSink
// holds.
type Sink struct {
	opts    Options
	targets []*target
	byName  map[string]*target

	// ring holds the healthy members; fullRing every member (the
	// fallback owner assignment when the whole pool is down, so
	// buffered samples land deterministically and ship on recovery).
	ring     atomic.Pointer[Ring]
	fullRing *Ring
	ringMu   sync.Mutex // serialises ring rebuilds, not lookups

	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New builds a cluster sink over the target pool.  Targets start
// optimistically healthy — like PushSink, the receiver is not contacted
// until the first flush or probe — and the probers take over from there.
func New(opts Options) (*Sink, error) {
	opts = opts.withDefaults()
	if len(opts.Targets) == 0 {
		return nil, fmt.Errorf("cluster: sink needs at least one target URL")
	}
	s := &Sink{opts: opts, byName: make(map[string]*target, len(opts.Targets))}
	// Satellite: with a pool to fail over to, one failed POST is enough
	// evidence — retrying the whole ladder against a dead target would
	// stall the dispatcher while a healthy target sits idle.  A
	// singleton pool keeps the usual ladder.
	maxAttempts := 0
	if len(opts.Targets) > 1 {
		maxAttempts = 1
	}
	names := make([]string, 0, len(opts.Targets))
	for _, raw := range opts.Targets {
		u, err := normalizeTarget(raw)
		if err != nil {
			return nil, err
		}
		if _, dup := s.byName[u.name]; dup {
			return nil, fmt.Errorf("cluster: duplicate target %q in pool", u.name)
		}
		push, err := monitor.NewPushSink(monitor.PushOptions{
			URL:          u.url,
			FlushSamples: opts.FlushSamples,
			MaxAttempts:  maxAttempts,
			RetryBase:    opts.RetryBase,
			Source:       opts.Source,
			Context:      opts.Context,
			Client:       opts.Client,
			Now:          opts.Now,
			Logger:       opts.Logger,
			Format:       opts.Format,
		})
		if err != nil {
			return nil, err
		}
		t := &target{name: u.name, url: u.url, probeURL: u.probe, push: push}
		t.healthy.Store(true)
		s.targets = append(s.targets, t)
		s.byName[t.name] = t
		names = append(names, t.name)
	}
	s.fullRing = NewRing(names, DefaultVirtualNodes)
	s.ring.Store(s.fullRing)

	ctx, cancel := context.WithCancel(opts.Context)
	s.cancel = cancel
	for _, t := range s.targets {
		s.wg.Add(1)
		go s.probeLoop(ctx, t)
	}
	return s, nil
}

// normalizeTarget splits an ingest URL into its pool-member name
// (host:port), the ingest endpoint, and the derived /readyz probe URL.
func normalizeTarget(raw string) (struct{ name, url, probe string }, error) {
	var out struct{ name, url, probe string }
	norm, err := monitor.NormalizePushURL(raw)
	if err != nil {
		return out, err
	}
	u, err := url.Parse(norm)
	if err != nil || u.Host == "" {
		return out, fmt.Errorf("cluster: bad target URL %q", raw)
	}
	out.name = u.Host
	out.url = norm
	out.probe = u.Scheme + "://" + u.Host + "/readyz"
	return out, nil
}

// Name implements monitor.Sink.
func (s *Sink) Name() string { return "cluster" }

// Ring returns the current healthy-member ring (atomic snapshot).
func (s *Sink) Ring() *Ring { return s.ring.Load() }

// TargetStatus is one pool member's health snapshot for /status.
type TargetStatus struct {
	Target    string `json:"target"`
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Sent      uint64 `json:"sent"`
	Pushes    uint64 `json:"pushes"`
	Dropped   uint64 `json:"dropped"`
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
}

// Status snapshots every pool member, in spec order.
func (s *Sink) Status() []TargetStatus {
	out := make([]TargetStatus, 0, len(s.targets))
	for _, t := range s.targets {
		out = append(out, TargetStatus{
			Target:    t.name,
			URL:       t.url,
			Healthy:   t.healthy.Load(),
			Sent:      t.push.Sent(),
			Pushes:    t.push.Pushes(),
			Dropped:   t.push.Dropped(),
			Retries:   t.push.Retries(),
			Failovers: t.failovers.Load(),
		})
	}
	return out
}

// Sent totals samples acknowledged across the pool.
func (s *Sink) Sent() uint64 {
	var n uint64
	for _, t := range s.targets {
		n += t.push.Sent()
	}
	return n
}

// Dropped totals samples dropped across the pool.
func (s *Sink) Dropped() uint64 {
	var n uint64
	for _, t := range s.targets {
		n += t.push.Dropped()
	}
	return n
}

// Instrument registers the cluster's self-metrics: per-target
// health/sent/failover/dropped series (labelled by target host:port;
// the push sink's enqueue refusals also by reason) and the ring
// membership gauges.  Wiring time only, like every sink.
func (s *Sink) Instrument(reg *telemetry.Registry) {
	reg.GaugeFunc("likwid_cluster_targets", func() float64 { return float64(len(s.targets)) })
	reg.GaugeFunc("likwid_cluster_ring_targets", func() float64 { return float64(s.ring.Load().Len()) })
	reg.GaugeFunc("likwid_cluster_ring_vnodes", func() float64 { return float64(s.ring.Load().VNodes()) })
	for _, t := range s.targets {
		t := t
		reg.GaugeFunc("likwid_cluster_target_healthy", func() float64 {
			if t.healthy.Load() {
				return 1
			}
			return 0
		}, "target", t.name)
		reg.CounterFunc("likwid_cluster_target_sent_total", func() float64 {
			return float64(t.push.Sent())
		}, "target", t.name)
		reg.CounterFunc("likwid_cluster_target_failovers_total", func() float64 {
			return float64(t.failovers.Load())
		}, "target", t.name)
		reg.CounterFunc("likwid_cluster_target_dropped_total", func() float64 {
			return float64(t.push.Dropped())
		}, "target", t.name)
		t.push.InstrumentRefused(reg, "likwid_cluster_target_dropped_total", "target", t.name)
		t.push.InstrumentEncoder(reg)
	}
}

// markUnhealthy flips a target down (idempotent) and shrinks the ring.
func (s *Sink) markUnhealthy(t *target, err error) {
	if !t.healthy.CompareAndSwap(true, false) {
		return
	}
	if s.opts.Logger != nil {
		s.opts.Logger.Warn("cluster target unhealthy", "target", t.name, "err", err)
	}
	s.rebuildRing()
}

// markHealthy flips a target back up (idempotent) and regrows the ring.
func (s *Sink) markHealthy(t *target) {
	if !t.healthy.CompareAndSwap(false, true) {
		return
	}
	if s.opts.Logger != nil {
		s.opts.Logger.Info("cluster target healthy", "target", t.name)
	}
	s.rebuildRing()
}

// rebuildRing publishes a fresh ring over the currently-healthy members.
// Guarded by ringMu so two concurrent transitions cannot interleave
// their read-modify-write and publish a stale membership.
func (s *Sink) rebuildRing() {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	names := make([]string, 0, len(s.targets))
	for _, t := range s.targets {
		if t.healthy.Load() {
			names = append(names, t.name)
		}
	}
	s.ring.Store(NewRing(names, DefaultVirtualNodes))
}

// probeLoop health-checks one target: GET /readyz every ProbeInterval
// while healthy, backing off exponentially from ProbeBackoff up to
// probeBackoffMax while down — a dead target costs a cheap probe every
// few seconds, a flapping one re-enters the ring within a beat.
func (s *Sink) probeLoop(ctx context.Context, t *target) {
	defer s.wg.Done()
	backoff := s.opts.ProbeBackoff
	for {
		var sleep time.Duration
		if t.healthy.Load() {
			sleep, backoff = s.opts.ProbeInterval, s.opts.ProbeBackoff
		} else {
			sleep = backoff
			if backoff *= 2; backoff > probeBackoffMax {
				backoff = probeBackoffMax
			}
		}
		timer := time.NewTimer(sleep)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		if err := s.probeOnce(ctx, t); err != nil {
			s.markUnhealthy(t, err)
		} else {
			s.markHealthy(t)
		}
	}
}

// probeOnce checks one target's readiness endpoint.
func (s *Sink) probeOnce(ctx context.Context, t *target) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.probeURL, nil)
	if err != nil {
		return err
	}
	resp, err := s.opts.ProbeClient.Do(req)
	if err != nil {
		return err
	}
	defer monitor.DrainAndClose(resp.Body)
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("readiness probe returned %s", resp.Status)
	}
	return nil
}

// Write implements monitor.Sink: deliver the batch per policy.
func (s *Sink) Write(b monitor.Batch) error {
	if len(b.Samples) == 0 {
		return nil
	}
	if s.opts.Policy == PolicyMirror {
		return s.writeMirror(b)
	}
	return s.route(b)
}

// writeMirror feeds the full batch to every target: healthy mirrors
// push, unhealthy ones buffer (bounded) and catch up on recovery.  A
// failed mirror keeps its own pending — the samples are not rerouted,
// because every other mirror already has its own copy.
func (s *Sink) writeMirror(b monitor.Batch) error {
	var firstErr error
	for _, t := range s.targets {
		if !t.healthy.Load() {
			t.push.Buffer(b)
			continue
		}
		if err := t.push.Write(b); err != nil {
			s.markUnhealthy(t, err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// route delivers a batch under shard or failover policy, rerouting
// stranded samples when a target fails mid-write.  Each pass either
// succeeds or marks at least one more target unhealthy, so the loop is
// bounded by the pool size; when nothing healthy remains the samples
// are buffered on their full-ring owners (bounded, counted) to ship on
// recovery.
func (s *Sink) route(b monitor.Batch) error {
	var firstErr error
	for pass := 0; pass <= len(s.targets); pass++ {
		parts := s.partition(b)
		if parts == nil {
			// Whole pool down: park the samples on the full-ring owner
			// assignment so each series still has one deterministic home
			// and recovery does not replay duplicates from two buffers.
			s.bufferDown(b)
			return firstErr
		}
		// Every part is attempted even after one fails: a healthy
		// target's slice of the batch must not ride into the next pass
		// (let alone vanish) just because another target died first.
		var strand []monitor.Sample
		for _, part := range parts {
			if err := part.t.push.Write(monitor.Batch{
				Collector: b.Collector, Time: b.Time, Samples: part.samples,
			}); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				s.markUnhealthy(part.t, err)
				// The failed target's pending holds this part plus any
				// earlier stranded samples — take it all and re-route
				// through the shrunk pool.
				orphans := part.t.push.TakePending()
				part.t.failovers.Add(1)
				if s.opts.Logger != nil {
					s.opts.Logger.Warn("cluster rerouting samples off failed target",
						"target", part.t.name, "samples", len(orphans))
				}
				strand = append(strand, orphans...)
			}
		}
		if len(strand) == 0 {
			return nil
		}
		b = monitor.Batch{Collector: b.Collector, Time: b.Time, Samples: strand}
	}
	return firstErr
}

// part is one target's slice of a partitioned batch.
type part struct {
	t       *target
	samples []monitor.Sample
}

// partition splits a batch by policy over the healthy pool: failover
// sends everything to the first healthy target in spec order, shard
// splits per sample key by the healthy ring.  Returns nil when no
// target is healthy.
func (s *Sink) partition(b monitor.Batch) []part {
	if s.opts.Policy == PolicyFailover {
		for _, t := range s.targets {
			if t.healthy.Load() {
				return []part{{t: t, samples: b.Samples}}
			}
		}
		return nil
	}
	ring := s.ring.Load()
	if ring.Len() == 0 {
		return nil
	}
	if ring.Len() == 1 {
		if t := s.byName[ring.Targets()[0]]; t.healthy.Load() {
			return []part{{t: t, samples: b.Samples}}
		}
		return nil
	}
	return s.split(b.Samples, ring)
}

// split partitions samples by their owner on ring, the parts in order
// of first appearance.  A sample's owner is the ring's pick for the key
// the receiver will intern: its source resolved by monitor.WireSource,
// the rule the per-target push sinks stamp on the wire.
func (s *Sink) split(samples []monitor.Sample, ring *Ring) []part {
	var parts []part
	for _, sm := range samples {
		k := sm.Key()
		k.Source = monitor.WireSource(k.Source, s.opts.Source)
		t := s.byName[ring.LookupKey(k)]
		i := slices.IndexFunc(parts, func(p part) bool { return p.t == t })
		if i < 0 {
			i = len(parts)
			parts = append(parts, part{t: t})
		}
		parts[i].samples = append(parts[i].samples, sm)
	}
	return parts
}

// bufferDown parks a batch while the whole pool is down: shard splits
// by the full ring (each series one deterministic home), failover
// buffers on the primary.  Bounded by each sink's MaxBuffered.
func (s *Sink) bufferDown(b monitor.Batch) {
	if s.opts.Policy == PolicyFailover {
		s.targets[0].push.Buffer(b)
		return
	}
	for _, p := range s.split(b.Samples, s.fullRing) {
		p.t.push.Buffer(monitor.Batch{Collector: b.Collector, Time: b.Time, Samples: p.samples})
	}
}

// anyHealthy reports whether at least one pool member is up.
func (s *Sink) anyHealthy() bool {
	for _, t := range s.targets {
		if t.healthy.Load() {
			return true
		}
	}
	return false
}

// Close drains the pool: probe loops stop, stranded samples on down or
// failing targets are rerouted to healthy ones while any remain (the
// graceful-drain guarantee — shutdown reroutes instead of counting the
// buffered samples as drops), then every per-target sink flushes and
// closes.  Mirror pools skip the reroute: a mirror's pending belongs to
// that mirror alone, every other target already has its own copy.
func (s *Sink) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	s.cancel()
	s.wg.Wait()
	if s.opts.Policy != PolicyMirror {
		for _, t := range s.targets {
			if t.push.Pending() == 0 {
				continue
			}
			if t.healthy.Load() {
				err := t.push.Flush()
				if err == nil {
					continue
				}
				s.markUnhealthy(t, err)
			}
			if !s.anyHealthy() {
				continue // the per-sink Close below counts the drops
			}
			orphans := t.push.TakePending()
			t.failovers.Add(1)
			if s.opts.Logger != nil {
				s.opts.Logger.Warn("cluster draining samples off unreachable target on close",
					"target", t.name, "samples", len(orphans))
			}
			_ = s.route(monitor.Batch{Collector: "cluster/drain", Time: lastSampleTime(orphans), Samples: orphans})
		}
	}
	var firstErr error
	for _, t := range s.targets {
		if err := t.push.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func lastSampleTime(samples []monitor.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	return samples[len(samples)-1].Time
}

// SetHealthy force-sets one target's health state — test hook and
// operational escape hatch (a probe flip is otherwise at most one
// ProbeInterval away).
func (s *Sink) SetHealthy(name string, healthy bool) error {
	t, ok := s.byName[strings.TrimSpace(name)]
	if !ok {
		return fmt.Errorf("cluster: unknown target %q", name)
	}
	if healthy {
		s.markHealthy(t)
	} else {
		s.markUnhealthy(t, fmt.Errorf("marked down"))
	}
	return nil
}
