// Package node assembles one likwid-agent node from its Config, in
// either mode, on one path: registry → store → -wal persistence →
// forward hop → sinks → dispatcher → alert and derive engines → one
// scheduler.  Only the source of samples depends on the mode: an agent
// arms the machine's collectors, a receiver arms none and takes pushed
// batches on the /ingest of its -receiver HTTP sink.  Either way the
// scheduler also carries a SelfCollector that republishes the telemetry
// registry as self/likwid_* series, so fleet rules can watch the
// watcher.  cmd/likwid-agent is flags and signals around New, Run and
// Close; the example and the tests build their nodes the same way.
package node

import (
	"context"
	"log/slog"
	"net/http"
	"net/http/pprof"

	"likwid/internal/alert"
	"likwid/internal/monitor"
	"likwid/internal/monitor/cluster"
	"likwid/internal/monitor/persist"
	"likwid/internal/telemetry"
)

// Node is one built agent or receiver.  Every field but cfg, log and
// cancel is optional until New returns, so Close also releases whatever
// a failed New had built.
type Node struct {
	cfg    Config
	log    *slog.Logger
	cancel context.CancelFunc // ends rule loops and bounds push retries; Close cancels it first
	reg    *telemetry.Registry
	store  *monitor.Store
	pm     *persist.Manager // nil without -wal

	forward     *monitor.Dispatcher // the -forward hop's queue; nil without -forward
	forwardPool *cluster.Sink

	sinks      []monitor.Sink
	https      []*monitor.HTTPSink // the sinks that listen; the rule engines mount on them
	dispatcher *monitor.Dispatcher
	notifiers  *monitor.Fanout[alert.Event] // nil without -rules
	grouper    *alert.Grouper               // nil without -group-wait
	loops      []*ruleLoop                  // one per rule file (-rules, -derive)
	collectors []monitor.Collector
	sched      *monitor.Scheduler
}

// New validates cfg and builds the node.  The HTTP sinks listen (and a
// receiver ingests) and the rule engines evaluate from the moment it
// returns; collectors sample only while Run runs.  On error everything
// built so far is released.
func New(cfg Config, log *slog.Logger) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := &Node{cfg: cfg, log: log, cancel: cancel, reg: telemetry.New()}
	if err := n.build(ctx); err != nil {
		_ = n.Close()
		return nil, err
	}
	return n, nil
}

func (n *Node) build(ctx context.Context) (err error) {
	cfg, log := &n.cfg, n.log
	n.store = monitor.NewStore(cfg.Retain, cfg.Tiers...)
	n.store.Instrument(n.reg)
	// Durability comes up before any append source (collectors, /ingest):
	// the WAL replay must not interleave with live traffic.
	if cfg.WALDir != "" {
		n.pm, err = persist.Open(cfg.WALDir, n.store, persist.Options{
			SnapshotInterval: cfg.SnapshotInterval,
			Logger:           log,
			Registry:         n.reg,
		})
		if err != nil {
			return err
		}
		log.Info("durability enabled", "dir", cfg.WALDir, "snapshot_interval", cfg.SnapshotInterval)
	}
	if err := n.startForward(ctx); err != nil {
		return err
	}
	if err := n.buildSinks(ctx); err != nil {
		return err
	}
	if n.forward != nil {
		// The forward hook fires after a batch is accepted and appended
		// here, so the samples are journaled exactly once per hop, at the
		// receiver that accepted them.  The receiver's own self and
		// derived series never pass /ingest: the tee carries them.
		n.https[0].SetForward(func(b monitor.Batch) { n.forward.Publish(b) })
		n.sinks = append(n.sinks, teeSink{n.forward})
	}
	n.dispatcher = monitor.NewDispatcher(cfg.Buffer, n.sinks...)
	n.dispatcher.SetLogger(log)
	n.dispatcher.Instrument(n.reg)
	if err := n.startAlerting(ctx); err != nil {
		return err
	}
	// Derived series ride the dispatcher, so push wires, /metrics and the
	// forward hop carry them like collected ones.
	if err := n.startDeriving(ctx); err != nil {
		return err
	}

	opts := monitor.SchedulerOptions{
		Store:      n.store,
		Dispatcher: n.dispatcher,
		Labels:     cfg.Labels,
		Logger:     log,
		Telemetry:  n.reg,
	}
	if cfg.Receiver == "" {
		if opts.Aggregator, n.collectors, err = armNode(cfg, log); err != nil {
			return err
		}
		opts.AdaptiveMax = cfg.Adaptive
	}
	n.sched = monitor.NewScheduler(opts)
	for _, c := range n.collectors {
		n.sched.Add(c)
	}
	// Either mode monitors itself: the SelfCollector rides the same
	// scheduler, store and sinks as every other collector, so self series
	// show on /metrics, /query?source=self and in the alert DSL.
	n.sched.Add(monitor.NewSelfCollector(n.reg, 0))
	return nil
}

// Run samples until ctx ends and logs each collector's accounting.  It
// returns nil; Close reports what the shutdown lost.
func (n *Node) Run(ctx context.Context) error {
	if n.cfg.Receiver == "" {
		n.log.Info("monitoring started",
			"node", n.cfg.Node.String(), "group", n.cfg.Group, "interval", n.cfg.Interval)
	} else {
		n.log.Info("receiver listening", "addr", n.Addr(),
			"endpoints", "/ingest /metrics /query /status /healthz /readyz", "pprof", n.cfg.Pprof)
	}
	n.sched.Run(ctx)
	for _, st := range n.sched.Stats() {
		n.log.Info("collector finished",
			"collector", st.Name, "batches", st.Batches, "samples", st.Samples,
			"errors", st.Errors, "stretches", st.Stretches)
	}
	return nil
}

// Reload re-reads every rule file (-rules, -derive), as POST
// /<what>/reload does; a bad file is logged and rejected whole, and the
// old set stays live.  trigger names the cause in the log.
func (n *Node) Reload(trigger string) {
	for _, l := range n.loops {
		_, _ = l.reload(trigger)
	}
}

// Close tears the node down once, after Run has returned or without Run,
// in reverse wiring order, every stage after whatever feeds it has
// stopped: collectors, the rule loops (derive before its dispatcher
// closes, alerting before its notifiers), the dispatcher (and the HTTP
// listeners with it) before the forward hop drains, and persistence
// last.  The error is the forward drain's.
func (n *Node) Close() error {
	n.cancel()
	for _, c := range n.collectors {
		if s, ok := c.(interface{ Stop() error }); ok {
			_ = s.Stop() // releases the counters; a failure at exit has no one to act on it
		}
	}
	for _, l := range n.loops {
		<-l.done
		l.sweep()
	}
	if n.grouper != nil {
		_ = n.grouper.Close() // flushes the open grouping windows
	}
	if n.notifiers != nil {
		if err := n.notifiers.Close(); err != nil {
			n.log.Warn("notifier close failed", "err", err)
		}
		n.log.Info("alerting stopped", "delivered", n.notifiers.Written(),
			"dropped", n.notifiers.Dropped(), "notifier_errors", n.notifiers.Errors())
	}
	n.closeSinks()
	err := n.drainForward()
	// Last: the final snapshot is taken once every append (collectors,
	// /ingest, rule history) has stopped.
	if n.pm != nil {
		if perr := n.pm.Close(); perr != nil {
			n.log.Warn("durability shutdown failed", "err", perr)
		}
	}
	return err
}

// Addr is the listen address of the node's first HTTP sink (a
// receiver's -receiver listener), or "" without one.
func (n *Node) Addr() string {
	if len(n.https) == 0 {
		return ""
	}
	return n.https[0].Addr()
}

// Store is the node's time-series store.
func (n *Node) Store() *monitor.Store { return n.store }

// buildSinks builds the sinks: an agent's -sink specs (stdout without
// any), or a receiver's HTTP sink on its -receiver address, whose
// -labels are ingest defaults — merged under each pushed sample's own
// labels, so e.g. cluster=emmy stamps a whole fleet while each agent's
// job= label survives.  Each sink is kept as soon as it is built, so a
// later failure closes the earlier ones.
func (n *Node) buildSinks(ctx context.Context) error {
	specs := n.cfg.Sinks
	if n.cfg.Receiver != "" {
		specs = []string{"http:" + n.cfg.Receiver}
	} else if len(specs) == 0 {
		specs = []string{"stdout"}
	}
	for _, spec := range specs {
		// Multi-target push pools are cluster sinks: health-checked
		// targets, consistent-hash sharding, mirror and failover modes.
		if cluster.IsSpec(spec) {
			cs, parsed, err := n.newCluster(ctx, spec, 0)
			if err != nil {
				return err
			}
			n.log.Info("cluster sink configured",
				"policy", parsed.Policy.String(), "targets", len(parsed.Targets))
			n.sinks = append(n.sinks, cs)
			continue
		}
		// The context bounds the push sink's retry backoff: a shutdown
		// flush against a dead receiver tries once instead of walking
		// the whole ladder.
		s, err := monitor.ParseSink(ctx, spec, n.store)
		if err != nil {
			return err
		}
		switch s := s.(type) {
		case *monitor.HTTPSink:
			n.log.Info("http sink listening", "addr", s.Addr(), "pprof", n.cfg.Pprof)
			n.mountOps(s)
			if n.cfg.Receiver != "" {
				s.SetIngestLabels(n.cfg.Labels)
			}
			n.https = append(n.https, s)
		case *monitor.PushSink:
			s.SetLogger(n.log)
			s.Instrument(n.reg)
		}
		n.sinks = append(n.sinks, s)
	}
	return nil
}

// mountOps mounts the operational surface on one HTTP sink: ingest
// instrumentation, GET /status (telemetry snapshot plus Go runtime
// stats), and — with -pprof — the net/http/pprof handlers under
// /debug/pprof/.  /healthz and /readyz are built into the sink itself.
func (n *Node) mountOps(h *monitor.HTTPSink) {
	h.Instrument(n.reg)
	h.Handle("/status", telemetry.StatusHandler(n.reg))
	if n.cfg.Pprof {
		h.Handle("/debug/pprof/", http.HandlerFunc(pprof.Index))
		h.Handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
		h.Handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
		h.Handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
		h.Handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	}
}

// closeSinks closes the dispatcher, which drains its queue and closes
// every sink, and logs the delivery accounting.  Without a dispatcher
// (New failed while building the sinks) it closes the sinks built.
func (n *Node) closeSinks() {
	if n.dispatcher == nil {
		for _, s := range n.sinks {
			_ = s.Close()
		}
		return
	}
	if err := n.dispatcher.Close(); err != nil {
		n.log.Warn("sink close failed", "err", err)
	}
	if d := n.dispatcher.Dropped(); d > 0 {
		n.log.Warn("batches dropped at the sink queue", "dropped", d)
	}
	for _, s := range n.sinks {
		switch s := s.(type) {
		case *monitor.PushSink:
			n.log.Info("push sink finished",
				"sent", s.Sent(), "pushes", s.Pushes(), "retries", s.Retries(), "dropped", s.Dropped())
		case *cluster.Sink:
			logTargets(n.log, "cluster target finished", s)
		}
	}
}

// newCluster builds and instruments the cluster sink of a push pool spec,
// stamped with this process's push identity.
func (n *Node) newCluster(ctx context.Context, spec string, flush int) (*cluster.Sink, cluster.Spec, error) {
	parsed, err := cluster.ParseSpec(spec)
	if err != nil {
		return nil, parsed, err
	}
	cs, err := cluster.New(cluster.Options{
		Targets:      parsed.Targets,
		Policy:       parsed.Policy,
		Format:       parsed.Format,
		Source:       monitor.DefaultPushSource(),
		FlushSamples: flush,
		Context:      ctx,
		Logger:       n.log,
	})
	if err != nil {
		return nil, parsed, err
	}
	cs.Instrument(n.reg)
	return cs, parsed, nil
}

// startForward builds the receiver's -forward federation hop: a cluster
// sink riding its own dispatcher, so a slow or dead upstream costs
// forward backlog (bounded, counted), never ingest latency or /metrics
// freshness.  A no-op without -forward.
func (n *Node) startForward(ctx context.Context) error {
	if n.cfg.Forward == "" {
		return nil
	}
	// The agent already batched; re-push each accepted batch as it
	// arrives.  Re-batching at the hop would add latency and leave up to
	// FlushSamples-1 samples to lose on a hard kill.
	cs, spec, err := n.newCluster(ctx, n.cfg.Forward, 1)
	if err != nil {
		return err
	}
	n.forwardPool = cs
	n.forward = monitor.NewDispatcher(n.cfg.Buffer, monitor.NewDownsampler(n.cfg.ForwardEvery, cs))
	n.forward.SetLogger(n.log)
	n.log.Info("forwarding enabled", "spec", n.cfg.Forward,
		"policy", spec.Policy.String(), "targets", len(spec.Targets), "downsample", n.cfg.ForwardEvery)
	return nil
}

// drainForward is the graceful drain of the forward hop, run once the
// listener is down (nothing new arrives): the pipeline flushes its
// buffered and downsampler-open samples upstream instead of counting
// them as shutdown drops, then each target's accounting is logged.
func (n *Node) drainForward() error {
	if n.forward == nil {
		return nil
	}
	err := n.forward.Close()
	logTargets(n.log, "forward target finished", n.forwardPool)
	if err != nil {
		n.log.Warn("forward drain failed", "err", err)
	}
	return err
}

// logTargets logs one line of delivery accounting per pool target.
func logTargets(log *slog.Logger, msg string, cs *cluster.Sink) {
	for _, ts := range cs.Status() {
		log.Info(msg, "target", ts.Target, "healthy", ts.Healthy,
			"sent", ts.Sent, "pushes", ts.Pushes, "failovers", ts.Failovers, "dropped", ts.Dropped)
	}
}

// teeSink republishes every batch into another dispatcher — the bridge
// that puts a receiver's own self and derived series onto the forward
// hop, which otherwise only sees what crosses /ingest.  The hop keeps its
// own dispatcher, so a slow upstream never stalls /metrics, and ingested
// batches, forwarded by the /ingest hook, never pass the HTTP sink's
// Write a second time.  Close is a no-op: the forward dispatcher
// outlives the tee and is drained after the listener goes down.
type teeSink struct{ d *monitor.Dispatcher }

func (t teeSink) Name() string                { return "forward-tee" }
func (t teeSink) Write(b monitor.Batch) error { t.d.Publish(b); return nil }
func (t teeSink) Close() error                { return nil }
