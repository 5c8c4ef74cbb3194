// likwid-agent is the continuous node-monitoring daemon grown out of the
// paper's one-shot tools, after the LIKWID Monitoring Stack: collectors
// wrap the suite (perfctr groups, topology, features, memory system),
// a scheduler samples them on an interval, samples are aggregated per
// topology domain into a tiered time-series store, and batches fan
// out asynchronously to sinks — including a push sink that ships them to
// a remote likwid-agent running in receiver mode.
//
// Usage:
//
//	likwid-agent [options]
//
//	-a arch        node architecture (default westmereEP)
//	-c CPULIST     processors to monitor, e.g. 0-7 (default: all)
//	-g GROUP       perfctr event group to sample (default MEM_DP)
//	-i DURATION    sampling interval (default 500ms)
//	-duration D    stop after D of wall time (default: run until SIGINT)
//	-sink SPEC     repeatable: stdout | csv:PATH | jsonl:PATH | http:ADDR
//	               | push:URL (batch+gzip POST to a receiver's /ingest)
//	               | pushv4:URL (same, on the binary columnar v4 wire).
//	               push/pushv4 also accept a receiver pool,
//	               push:[shard@|mirror@|failover@]URL,URL,...: targets
//	               are health-checked (/readyz probes, exponential
//	               re-probe) and series are hash-partitioned across the
//	               healthy pool (shard, the multi-URL default), mirrored
//	               to every target (HA), or sent to the first healthy
//	               target in order (failover); a failed target's
//	               buffered samples re-route to the survivors
//	-collectors L  comma-separated collector set (default all registered)
//	-load SPEC     synthetic background load: stream[:NTASKS] | idle
//	-buffer N      sink queue depth (drop-and-count beyond it, default 64)
//	-retain N      most raw points kept per series (default 1024); a
//	               series' ring grows with the points it holds (at most
//	               2x that while growing), never past N slots
//	-tiers SPEC    downsampled retention tiers, e.g. 10s:360,1m:720:
//	               evicted raw points compact into min/median/max/avg
//	               buckets, and windowed queries stitch tiers with raw
//	-raw           also emit per-event rates next to derived metrics
//	-labels L      label set k=v,k=v stamped onto every collected sample
//	               (job=lbm,cluster=emmy) — carried end to end through
//	               the store, sinks, push wire (v3 "labels" field),
//	               /metrics exposition, /query?label.K=V selectors and
//	               alert events.  In receiver mode the labels are ingest
//	               defaults, merged under each pushed sample's own set
//	-adaptive D    stretch a collector's interval (doubling, up to D)
//	               while its samples are unchanged; snap back on change
//	-receiver ADDR aggregation mode, the same agent with another source
//	               of samples: no collectors, an HTTP sink on ADDR whose
//	               /ingest accepts push batches from other agents (each
//	               sample's source field names its agent) and serves
//	               the merged store on /metrics and /query — each
//	               agent's series keyed by source, selectable with
//	               /query?source=NAME (or a '*' wildcard across agents).
//	               Store, -wal, rules, self-monitoring and -buffer work
//	               as in agent mode
//	-forward SPEC  receiver mode: re-push every accepted sample upstream,
//	               push:[shard@|mirror@|failover@]URL[,URL...] — the
//	               receiver-to-receiver hop that composes receivers into
//	               node → rack → cluster federation trees.  Forwarded
//	               batches keep each sample's original source and are
//	               journaled only where they were accepted (no double
//	               write on the hop); SIGTERM drains the forward buffers
//	               before exit
//	-forward-downsample D
//	               average each forwarded series into D-wide windows
//	               before re-pushing (CompactMean on the wire), so every
//	               hop up the tree can coarsen the stream; 0 (default)
//	               forwards every point.  Needs -forward
//	-rules FILE    alerting rules evaluated against the store; firing and
//	               resolved transitions go to the notifiers, are recorded
//	               as alert/NAME series, and show on GET /alerts and
//	               GET /rules of any http sink or receiver.  SIGHUP
//	               re-reads the file (bad edits are rejected atomically,
//	               the old rules stay live); POST /rules/reload does the
//	               same over HTTP
//	-notify SPEC   repeatable alert notifier: stdout | jsonl:PATH |
//	               webhook:URL (default stdout when -rules is set)
//	-group-wait D  coalesce alert events of one rule and state arriving
//	               within D into a single grouped notification carrying
//	               every instance — one webhook POST per incident, not
//	               one per node (needs -rules; 0 = off)
//	-derive FILE   recorded rules and ingest routes.  Rules like
//	               "cluster_flops = sum(flops_dp) by (source) over 30s"
//	               evaluate windowed aggregations over matching series
//	               and append the result back into the store as
//	               first-class series (tiers, /query, /metrics, WAL,
//	               push wires and the alert DSL all see them); routes
//	               ("route drop|rename|relabel SELECTOR ...") retag
//	               pushed samples before they are interned.  SIGHUP and
//	               POST /derive/reload re-read the file atomically;
//	               GET /derive shows rule and route bookkeeping
//	-log-level L   stderr log verbosity: debug | info | warn | error
//	-log-format F  stderr log encoding: text | json (structured log/slog
//	               either way)
//	-pprof         mount net/http/pprof under /debug/pprof/ on every
//	               http sink and receiver (off by default)
//	-wal DIR       durability directory: every append is journaled to a
//	               write-ahead log and the store's rings and tiers are
//	               snapshotted periodically, so a restarted agent or
//	               receiver resumes with its history intact (snapshot
//	               restored, WAL replayed, torn tail truncated)
//	-snapshot-interval D
//	               ring/tier snapshot period (default 1m); the WAL is
//	               truncated at each snapshot.  Needs -wal
//
// Every http sink and receiver also serves the operational surface:
// GET /status (telemetry registry snapshot + Go runtime stats),
// GET /healthz (liveness) and GET /readyz (named readiness checks).
// A SelfCollector republishes the agent's own telemetry as
// self/likwid_* series — retention, /metrics, /query?source=self and
// the alert DSL all work on them unchanged.
//
// Example, one receiver aggregating two node agents and alerting over
// the fleet's series:
//
//	likwid-agent -receiver :8090 -tiers 10s:360,1m:720 \
//	    -rules fleet.rules -notify webhook:http://ops:9093/hook
//	likwid-agent -g MEM_DP -i 500ms -sink push:localhost:8090
//	likwid-agent -a istanbul -g MEM_DP -sink push:localhost:8090
package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"likwid/internal/alert"
	"likwid/internal/derive"
	"likwid/internal/machine"
	"likwid/internal/monitor"
	"likwid/internal/monitor/cluster"
	"likwid/internal/monitor/persist"
	"likwid/internal/rules"
	"likwid/internal/telemetry"
	"likwid/internal/topology"
)

// openPersist enables -wal durability: restore the store from the state
// directory, install the append journal, start the snapshot loop.  It
// must run before any append source (collectors, /ingest) comes up, so
// the replay is not interleaved with live traffic.  nil without -wal.
func openPersist(cfg *agentConfig, store *monitor.Store, reg *telemetry.Registry, log *slog.Logger) (*persist.Manager, error) {
	if cfg.walDir == "" {
		return nil, nil
	}
	pm, err := persist.Open(cfg.walDir, store, persist.Options{
		SnapshotInterval: cfg.snapshotInterval,
		Logger:           log,
		Registry:         reg,
	})
	if err != nil {
		return nil, err
	}
	log.Info("durability enabled",
		"dir", cfg.walDir, "snapshot_interval", cfg.snapshotInterval)
	return pm, nil
}

// closePersist snapshots and stops the manager after appends have
// ceased; nil-safe for runs without -wal.
func closePersist(pm *persist.Manager, log *slog.Logger) {
	if pm == nil {
		return
	}
	if err := pm.Close(); err != nil {
		log.Warn("durability shutdown failed", "err", err)
	}
}

func main() {
	cfg, err := parseAgentFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "likwid-agent:", err)
		os.Exit(1)
	}
	log := cfg.newLogger(os.Stderr)
	slog.SetDefault(log)

	ctx, cancel := context.WithCancel(context.Background())
	if cfg.duration > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), cfg.duration)
	}
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
	}()

	if err := run(ctx, cfg, log); err != nil {
		log.Error("likwid-agent failed", "err", err)
		os.Exit(1)
	}
}

// mountOps mounts the operational surface on one HTTP sink: ingest
// instrumentation, GET /status (telemetry snapshot plus Go runtime
// stats), and — with -pprof — the net/http/pprof handlers under
// /debug/pprof/.  /healthz and /readyz are built into the sink itself.
func mountOps(h *monitor.HTTPSink, reg *telemetry.Registry, cfg *agentConfig) {
	h.Instrument(reg)
	h.Handle("/status", telemetry.StatusHandler(reg))
	if cfg.pprof {
		h.Handle("/debug/pprof/", http.HandlerFunc(pprof.Index))
		h.Handle("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline))
		h.Handle("/debug/pprof/profile", http.HandlerFunc(pprof.Profile))
		h.Handle("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol))
		h.Handle("/debug/pprof/trace", http.HandlerFunc(pprof.Trace))
	}
}

// run is likwid-agent in either mode, on one path: registry → store →
// -wal persistence → forward hop → sinks → dispatcher → alert and derive
// engines → one scheduler → one drain.  Only the source of samples
// depends on the mode: an agent arms the node's collectors, a receiver
// arms none and takes pushed batches on the /ingest of its -receiver
// HTTP sink.  Either way the scheduler also carries a SelfCollector that
// republishes the telemetry registry as self/likwid_* series, so fleet
// rules can watch the watcher.
//
// Teardown is deferred, so error paths share it.  It runs in reverse
// wiring order, every stage after whatever feeds it has stopped:
// collectors stop after the scheduler returns, derive before its
// dispatcher closes, the dispatcher (and the HTTP listeners with it)
// before the forward hop drains, and persistence last.
func run(ctx context.Context, cfg *agentConfig, log *slog.Logger) (err error) {
	reg := telemetry.New()
	store := monitor.NewStore(cfg.retain, cfg.tiers...)
	store.Instrument(reg)
	// Durability comes up before any append source (collectors, /ingest):
	// the WAL replay must not interleave with live traffic.
	pm, err := openPersist(cfg, store, reg, log)
	if err != nil {
		return err
	}
	// Deferred first, so it runs last: the final snapshot is taken once
	// every append (collectors, /ingest, rule history) has stopped.
	defer closePersist(pm, log)
	fwd, drainForward, err := startForward(ctx, cfg, reg, log)
	if err != nil {
		return err
	}
	defer func() {
		// Graceful drain: the listener is down (nothing new arrives), so
		// the forward pipeline can flush its buffered and downsampler-open
		// samples upstream instead of counting them as shutdown drops.
		if ferr := drainForward(); ferr != nil {
			log.Warn("forward drain failed", "err", ferr)
			if err == nil {
				err = ferr
			}
		}
	}()
	sinks, https, err := buildSinks(ctx, cfg, store, reg, log)
	if err != nil {
		return err
	}
	if fwd != nil {
		// The forward hook fires after a batch is accepted and appended
		// here, so the samples are journaled exactly once per hop, at the
		// receiver that accepted them.  The receiver's own self and
		// derived series never pass /ingest: the tee carries them.
		https[0].SetForward(func(b monitor.Batch) { fwd.Publish(b) })
		sinks = append(sinks, teeSink{fwd})
	}
	dispatcher := monitor.NewDispatcher(cfg.buffer, sinks...)
	dispatcher.SetLogger(log)
	dispatcher.Instrument(reg)
	defer func() {
		if cerr := dispatcher.Close(); cerr != nil {
			log.Warn("sink close failed", "err", cerr)
		}
		if d := dispatcher.Dropped(); d > 0 {
			log.Warn("batches dropped at the sink queue", "dropped", d)
		}
		for _, s := range sinks {
			switch s := s.(type) {
			case *monitor.PushSink:
				log.Info("push sink finished",
					"sent", s.Sent(), "pushes", s.Pushes(), "retries", s.Retries(), "dropped", s.Dropped())
			case *cluster.Sink:
				logTargets(log, "cluster target finished", s)
			}
		}
	}()
	alerting, err := startAlerting(ctx, cfg, store, https, reg, log)
	if err != nil {
		return err
	}
	defer alerting.stop(log)
	// Derived series ride the dispatcher, so push wires, /metrics and the
	// forward hop carry them like collected ones.
	deriving, err := startDeriving(ctx, cfg, store, https, dispatcher, reg, log)
	if err != nil {
		return err
	}
	defer deriving.stop() // evaluation stops before its dispatcher closes
	reloadOnSIGHUP(ctx, alerting.loop, deriving)

	opts := monitor.SchedulerOptions{
		Store:      store,
		Dispatcher: dispatcher,
		Labels:     cfg.labels,
		Logger:     log,
		Telemetry:  reg,
	}
	var collectors []monitor.Collector
	if cfg.receiver == "" {
		if opts.Aggregator, collectors, err = armNode(cfg, log); err != nil {
			return err
		}
		opts.AdaptiveMax = cfg.adaptive
	}
	sched := monitor.NewScheduler(opts)
	for _, c := range collectors {
		sched.Add(c)
		if s, ok := c.(interface{ Stop() error }); ok {
			defer s.Stop() // releases the counters; a failure at exit has no one to act on it
		}
	}
	// Either mode monitors itself: the SelfCollector rides the same
	// scheduler, store and sinks as every other collector, so self series
	// show on /metrics, /query?source=self and in the alert DSL.
	sched.Add(monitor.NewSelfCollector(reg, 0))
	if cfg.receiver == "" {
		log.Info("monitoring started",
			"node", cfg.node.String(), "group", cfg.group, "interval", cfg.interval)
	} else {
		log.Info("receiver listening", "addr", https[0].Addr(),
			"endpoints", "/ingest /metrics /query /status /healthz /readyz", "pprof", cfg.pprof)
	}
	sched.Run(ctx)
	for _, st := range sched.Stats() {
		log.Info("collector finished",
			"collector", st.Name, "batches", st.Batches, "samples", st.Samples,
			"errors", st.Errors, "stretches", st.Stretches)
	}
	return nil
}

// buildSinks builds the sinks: an agent's -sink specs (stdout without
// any), or a receiver's HTTP sink on its -receiver address, whose
// -labels are ingest defaults — merged under each pushed sample's own
// labels, so e.g. cluster=emmy stamps a whole fleet while each agent's
// job= label survives.  It returns the HTTP sinks apart as well: the rule
// engines mount their endpoints on them.
func buildSinks(ctx context.Context, cfg *agentConfig, store *monitor.Store, reg *telemetry.Registry, log *slog.Logger) ([]monitor.Sink, []*monitor.HTTPSink, error) {
	specs := cfg.sinks
	if cfg.receiver != "" {
		specs = []string{"http:" + cfg.receiver}
	} else if len(specs) == 0 {
		specs = []string{"stdout"}
	}
	built := make([]monitor.Sink, 0, len(specs))
	var https []*monitor.HTTPSink
	for _, spec := range specs {
		// Multi-target push pools are cluster sinks: health-checked
		// targets, consistent-hash sharding, mirror and failover modes.
		if cluster.IsSpec(spec) {
			cs, parsed, err := newCluster(ctx, spec, 0, reg, log)
			if err != nil {
				return nil, nil, err
			}
			log.Info("cluster sink configured",
				"policy", parsed.Policy.String(), "targets", len(parsed.Targets))
			built = append(built, cs)
			continue
		}
		// The context bounds the push sink's retry backoff: a shutdown
		// flush against a dead receiver tries once instead of walking
		// the whole ladder.
		s, err := monitor.ParseSink(ctx, spec, store)
		if err != nil {
			return nil, nil, err
		}
		switch s := s.(type) {
		case *monitor.HTTPSink:
			log.Info("http sink listening", "addr", s.Addr(), "pprof", cfg.pprof)
			mountOps(s, reg, cfg)
			if cfg.receiver != "" {
				s.SetIngestLabels(cfg.labels)
			}
			https = append(https, s)
		case *monitor.PushSink:
			s.SetLogger(log)
			s.Instrument(reg)
		}
		built = append(built, s)
	}
	return built, https, nil
}

// newCluster builds and instruments the cluster sink of a push pool spec,
// stamped with this process's push identity.
func newCluster(ctx context.Context, spec string, flush int, reg *telemetry.Registry, log *slog.Logger) (*cluster.Sink, cluster.Spec, error) {
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
		Logger:       log,
	})
	if err != nil {
		return nil, parsed, err
	}
	cs.Instrument(reg)
	return cs, parsed, nil
}

// startForward builds the receiver's -forward federation hop: a cluster
// sink riding its own dispatcher, so a slow or dead upstream costs
// forward backlog (bounded, counted), never ingest latency or /metrics
// freshness.  drain closes the hop and logs each target's accounting.
// Without -forward the dispatcher is nil and drain a no-op.
func startForward(ctx context.Context, cfg *agentConfig, reg *telemetry.Registry, log *slog.Logger) (*monitor.Dispatcher, func() error, error) {
	if cfg.forward == "" {
		return nil, func() error { return nil }, nil
	}
	// The agent already batched; re-push each accepted batch as it
	// arrives.  Re-batching at the hop would add latency and leave up to
	// FlushSamples-1 samples to lose on a hard kill.
	cs, spec, err := newCluster(ctx, cfg.forward, 1, reg, log)
	if err != nil {
		return nil, nil, err
	}
	d := monitor.NewDispatcher(cfg.buffer, monitor.NewDownsampler(cfg.forwardEvery, cs))
	d.SetLogger(log)
	log.Info("forwarding enabled", "spec", cfg.forward,
		"policy", spec.Policy.String(), "targets", len(spec.Targets), "downsample", cfg.forwardEvery)
	return d, func() error {
		err := d.Close()
		logTargets(log, "forward target finished", cs)
		return err
	}, nil
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

// ruleLoop is one rule engine running on its cadence over one rule
// file: the reload entry that SIGHUP and POST /<what>/reload share, and
// the teardown.
type ruleLoop struct {
	reload func(trigger string) (int, error)
	cancel context.CancelFunc
	done   chan struct{}
	sweep  func() // logs every rule whose newest evaluation failed
}

// stop cancels the engine, waits for its rule goroutines and names the
// rules that finished with an error.  A nil loop (no rule file) has
// nothing to stop.
func (l *ruleLoop) stop() {
	if l == nil {
		return
	}
	l.cancel()
	<-l.done
	l.sweep()
}

// ruleEngine is what runRules drives of either rule engine; S is the
// engine's status row, which embeds the runtime's common fields.
type ruleEngine[S any] interface {
	Run(context.Context)
	RuleStatuses() []S
}

// defaultEvery is the cadence of rules without an "every" clause.  Agent
// mode tracks the sampling cadence; receiver mode has no sampling of its
// own, so rules fall back to the engines' default (10 s) instead of the
// meaningless -i value.
func defaultEvery(cfg *agentConfig) time.Duration {
	if cfg.receiver != "" {
		return 0
	}
	return cfg.interval
}

// runRules starts an engine's cadence loop and mounts its hot reload on
// every HTTP sink as POST /<what>/reload.  reloadFile re-reads the file
// and swaps it in; a bad file is rejected atomically, keeping the old
// set live.  It returns the new rule count and any further attributes
// for the log line.
func runRules[S any](ctx context.Context, log *slog.Logger, https []*monitor.HTTPSink, what, file string,
	engine ruleEngine[S], common func(S) rules.Status, reloadFile func() (int, []any, error)) *ruleLoop {
	reload := func(trigger string) (int, error) {
		n, attrs, err := reloadFile()
		if err != nil {
			log.Warn(what+" reload rejected, the old set stays live", "trigger", trigger, "err", err)
			return 0, err
		}
		log.Info(what+" reloaded", append([]any{"trigger", trigger, "rules", n, "file", file}, attrs...)...)
		return n, nil
	}
	for _, h := range https {
		h.Handle("/"+what+"/reload", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			n, err := reload("POST /" + what + "/reload")
			if err != nil {
				http.Error(w, what+" reload rejected: "+err.Error(), http.StatusUnprocessableEntity)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"rules\":%d}\n", n)
		}))
	}
	ectx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		engine.Run(ectx)
		close(done)
	}()
	sweep := func() {
		for _, s := range engine.RuleStatuses() {
			if st := common(s); st.LastError != "" {
				log.Warn("rule finished with error", "file", file, "rule", st.Name, "err", st.LastError)
			}
		}
	}
	return &ruleLoop{reload: reload, cancel: cancel, done: done, sweep: sweep}
}

// reloadOnSIGHUP hot-reloads every running rule file (-rules, -derive)
// on SIGHUP until ctx ends, in agent and receiver modes alike.  Without
// a rule file the signal keeps its default action.
func reloadOnSIGHUP(ctx context.Context, loops ...*ruleLoop) {
	loops = slices.DeleteFunc(loops, func(l *ruleLoop) bool { return l == nil })
	if len(loops) == 0 {
		return
	}
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		defer signal.Stop(hup)
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				for _, l := range loops {
					_, _ = l.reload("SIGHUP")
				}
			}
		}
	}()
}

// alerting bundles a running alert engine's delivery stages with its
// rule loop.
type alerting struct {
	fanout  *monitor.Fanout[alert.Event]
	grouper *alert.Grouper // nil without -group-wait
	loop    *ruleLoop      // nil without -rules
}

// stop stops the rule loop, flushes any open grouping windows, drains
// the notifier queue, and logs the delivery accounting.
func (a *alerting) stop(log *slog.Logger) {
	if a.loop == nil {
		return
	}
	a.loop.stop()
	if a.grouper != nil {
		_ = a.grouper.Close()
	}
	if err := a.fanout.Close(); err != nil {
		log.Warn("notifier close failed", "err", err)
	}
	log.Info("alerting stopped",
		"delivered", a.fanout.Written(), "dropped", a.fanout.Dropped(), "notifier_errors", a.fanout.Errors())
}

// startAlerting builds notifiers, engine and endpoints from -rules and
// -notify and starts the evaluation loop.  A no-op (nil loop) without
// -rules.
func startAlerting(ctx context.Context, cfg *agentConfig, store *monitor.Store, https []*monitor.HTTPSink, reg *telemetry.Registry, log *slog.Logger) (*alerting, error) {
	if len(cfg.rules) == 0 {
		return &alerting{}, nil
	}
	specs := cfg.notifiers
	if len(specs) == 0 {
		specs = []string{"stdout"}
	}
	notifiers := make([]alert.Notifier, 0, len(specs))
	for _, spec := range specs {
		n, err := alert.ParseNotifier(ctx, spec)
		if err != nil {
			return nil, err
		}
		if w, ok := n.(*alert.WebhookNotifier); ok {
			w.SetLogger(log)
		}
		notifiers = append(notifiers, n)
	}
	fanout := alert.NewFanout(cfg.buffer, notifiers...)
	fanout.SetLogger(log)
	fanout.Instrument(reg)
	// -group-wait puts a coalescing window in front of the fanout: N
	// instances of one rule tripping together become one notification.
	var grouper *alert.Grouper
	var notify alert.Publisher = fanout
	if cfg.groupWait > 0 {
		grouper = alert.NewGrouper(fanout, cfg.groupWait, nil)
		notify = grouper
	}
	// "Notifiers up" readiness: not ready once the fanout is closed.
	for _, h := range https {
		h.AddReadyCheck("notifiers", func() error {
			if fanout.Closed() {
				return fmt.Errorf("notifier fanout closed")
			}
			return nil
		})
	}
	engine, err := alert.NewEngine(alert.Options{
		Store:        store,
		DefaultEvery: defaultEvery(cfg),
		Notify:       notify,
		Telemetry:    reg,
		// A fleet agent that stops pushing must not keep its alerts
		// firing forever off the frozen last window.  The horizon stays
		// clear of the adaptive stretch cap: a healthy static series
		// sampled every -adaptive interval must not be mistaken for a
		// dead one between its (legitimately sparse) collections.
		StaleAfter: staleHorizon(cfg.adaptive),
		// The engine reports a rule's error when it changes, not once per
		// evaluation — a receiver evaluating fleet rules before the first
		// agent pushes would otherwise repeat "no series matches" at the
		// full cadence.
		OnError: func(rule string, err error) {
			log.Warn("rule evaluation failed", "file", cfg.rulesFile, "rule", rule, "err", err)
		},
	}, cfg.rules)
	if err != nil {
		return nil, err
	}
	for _, h := range https {
		h.Handle("/alerts", http.HandlerFunc(engine.HandleAlerts))
		h.Handle("/rules", http.HandlerFunc(engine.HandleRules))
	}
	loop := runRules(ctx, log, https, "rules", cfg.rulesFile, engine,
		func(s alert.RuleStatus) rules.Status { return s.Status },
		func() (int, []any, error) {
			n, err := reloadRules(engine, cfg.rulesFile)
			return n, nil, err
		})
	log.Info("alerting started", "rules", len(cfg.rules), "file", cfg.rulesFile, "group_wait", cfg.groupWait)
	return &alerting{fanout: fanout, grouper: grouper, loop: loop}, nil
}

// startDeriving builds the recorded-rule engine and ingest routes from
// -derive and starts the evaluation loop.  Routes install on every HTTP
// sink's /ingest; emitted samples are appended to the store and also
// published to dispatch (when non-nil) as "derive/<rule>" batches so
// push wires and /metrics carry derived series like collected ones.  A
// no-op (nil loop) without -derive.
func startDeriving(ctx context.Context, cfg *agentConfig, store *monitor.Store, https []*monitor.HTTPSink, dispatch *monitor.Dispatcher, reg *telemetry.Registry, log *slog.Logger) (*ruleLoop, error) {
	if cfg.deriveFile == "" {
		return nil, nil
	}
	installRoutes := func(routes []monitor.IngestRoute) {
		router := monitor.NewRouter(routes)
		router.Instrument(reg)
		for _, h := range https {
			h.SetRouter(router)
		}
	}
	installRoutes(cfg.deriveRoutes)
	engine, err := derive.NewEngine(derive.Options{
		Store:        store,
		DefaultEvery: defaultEvery(cfg),
		Dispatcher:   dispatch,
		Telemetry:    reg,
		OnError: func(rule string, err error) {
			log.Warn("rule evaluation failed", "file", cfg.deriveFile, "rule", rule, "err", err)
		},
	}, cfg.deriveRules)
	if err != nil {
		return nil, err
	}
	routeStatuses := func() []monitor.RouteStatus {
		if len(https) == 0 {
			return nil
		}
		if r := https[0].Router(); r != nil {
			return r.Statuses()
		}
		return nil
	}
	for _, h := range https {
		h.Handle("/derive", derive.StatusHandler(engine, routeStatuses))
	}
	loop := runRules(ctx, log, https, "derive", cfg.deriveFile, engine,
		func(s derive.RuleStatus) rules.Status { return s.Status },
		func() (int, []any, error) {
			n, routes, err := reloadDerive(engine, cfg.deriveFile)
			if err != nil {
				return 0, nil, err
			}
			installRoutes(routes)
			return n, []any{"routes", len(routes)}, nil
		})
	log.Info("derive started",
		"rules", len(cfg.deriveRules), "routes", len(cfg.deriveRoutes), "file", cfg.deriveFile)
	return loop, nil
}

// staleHorizon is the alert staleness cut-off: 5 minutes, pushed out to
// four adaptive stretch caps so stretched-but-healthy collectors never
// look stale.
func staleHorizon(adaptive time.Duration) time.Duration {
	const base = 5 * time.Minute
	if h := 4 * adaptive; h > base {
		return h
	}
	return base
}

// armNode is an agent's source: the node's collectors, over a load
// driver that advances simulated time between samples, and the
// aggregator rolling their samples up the topology.
func armNode(cfg *agentConfig, log *slog.Logger) (*monitor.Aggregator, []monitor.Collector, error) {
	node := cfg.node
	loadCPUs := cfg.cpus
	if len(loadCPUs) == 0 {
		loadCPUs = make([]int, node.M.OS.NumCPUs())
		for i := range loadCPUs {
			loadCPUs[i] = i
		}
	}
	load, err := newLoadDriver(node.M, loadCPUs, cfg.loadSpec)
	if err != nil {
		return nil, nil, err
	}
	info, err := topology.Probe(node.M.CPUs, node.M.Arch.ClockMHz)
	if err != nil {
		return nil, nil, err
	}
	mcfg := monitor.Config{
		Machine:   node.M,
		MachineMu: new(sync.Mutex),
		CPUs:      cfg.cpus,
		Group:     cfg.group,
		Interval:  cfg.interval,
		RawEvents: cfg.raw,
		Advance:   load.advance,
	}
	names := cfg.collectors
	if len(names) == 0 {
		names = monitor.DefaultRegistry.Names()
	}
	var active []monitor.Collector
	for _, name := range names {
		c, err := monitor.DefaultRegistry.Build(strings.TrimSpace(name), mcfg)
		if err != nil {
			// A collector that cannot come up on this node (e.g. features
			// on AMD) is skipped, not fatal: monitoring degrades, it does
			// not die.
			log.Warn("skipping collector", "collector", name, "err", err)
			continue
		}
		active = append(active, c)
	}
	if len(active) == 0 {
		return nil, nil, fmt.Errorf("no collector could be built; nothing to monitor")
	}
	return monitor.NewAggregator(info, cfg.cpus), active, nil
}

// loadDriver advances simulated machine time between counter samples.  The
// "stream" mode keeps streaming tasks busy so the monitored counters move;
// it adapts the per-tick element count so one tick of work costs roughly
// one interval of simulated time.
type loadDriver struct {
	m           *machine.Machine
	works       []*machine.ThreadWork
	elemsPerSec float64
}

func newLoadDriver(m *machine.Machine, cpus []int, spec string) (*loadDriver, error) {
	kind, nTasks, err := parseLoadSpec(spec)
	if err != nil {
		return nil, err
	}
	d := &loadDriver{m: m, elemsPerSec: 1e8}
	if kind == "idle" {
		return d, nil
	}
	if nTasks == 0 {
		nTasks = 2 * m.Arch.Sockets
	}
	if nTasks > len(cpus) {
		nTasks = len(cpus)
	}
	// Spread tasks round-robin over sockets so every controller sees
	// traffic and the socket roll-ups have something to show.
	bySocket := map[int][]int{}
	var sockets []int
	for _, cpu := range cpus {
		s := m.SocketOf(cpu)
		if _, ok := bySocket[s]; !ok {
			sockets = append(sockets, s)
		}
		bySocket[s] = append(bySocket[s], cpu)
	}
	perElem := machine.PerElem{
		Cycles: 1.0,
		Counts: machine.Counts{
			machine.EvInstr:         3,
			machine.EvFlopsPackedDP: 1,
			machine.EvLoads:         2,
			machine.EvStores:        1,
		},
		MemReadBytes: 16, MemWriteBytes: 8,
		Streams: 3, Vector: true,
	}
	for i := 0; i < nTasks; i++ {
		socket := sockets[i%len(sockets)]
		socketCPUs := bySocket[socket]
		cpu := socketCPUs[(i/len(sockets))%len(socketCPUs)]
		task := m.OS.Spawn(fmt.Sprintf("agent-load-%d", i), nil)
		if err := m.OS.Pin(task, cpu); err != nil {
			return nil, err
		}
		d.works = append(d.works, &machine.ThreadWork{Task: task, PerElem: perElem})
	}
	return d, nil
}

// advance moves simulated time forward by roughly dt seconds.
func (d *loadDriver) advance(dt float64) {
	if len(d.works) == 0 {
		d.m.RunIdle(dt, 0)
		return
	}
	elems := d.elemsPerSec * dt
	for _, w := range d.works {
		w.Elems = elems
		w.Done = 0
		w.FinishTime = 0
	}
	elapsed := d.m.RunPhase(d.works, 0)
	if elapsed < dt {
		d.m.RunIdle(dt-elapsed, 0)
	}
	// Calibrate toward one interval of simulated work per tick.
	if elapsed > 0 {
		factor := dt / elapsed
		if factor < 0.25 {
			factor = 0.25
		}
		if factor > 4 {
			factor = 4
		}
		d.elemsPerSec *= factor
	}
}
