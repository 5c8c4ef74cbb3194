package node

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"likwid/internal/alert"
	"likwid/internal/derive"
	"likwid/internal/monitor"
	"likwid/internal/rules"
)

// ruleLoop is one rule engine running on its cadence over one rule
// file, until the node's context ends: the reload entry that Node.Reload
// and POST /<what>/reload share, and the teardown.
type ruleLoop struct {
	reload func(trigger string) (int, error)
	done   chan struct{}
	sweep  func() // logs every rule whose newest evaluation failed
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
func (c *Config) defaultEvery() time.Duration {
	if c.Receiver != "" {
		return 0
	}
	return c.Interval
}

// runRules starts an engine's cadence loop, adds it to the node's loops
// and mounts its hot reload on every HTTP sink as POST /<what>/reload.
// reloadFile re-reads the file and swaps it in; a bad file is rejected
// atomically, keeping the old set live.  It returns the new rule count
// and any further attributes for the log line.
func runRules[S any](ctx context.Context, n *Node, what, file string,
	engine ruleEngine[S], common func(S) rules.Status, reloadFile func() (int, []any, error)) {
	reload := func(trigger string) (int, error) {
		count, attrs, err := reloadFile()
		if err != nil {
			n.log.Warn(what+" reload rejected, the old set stays live", "trigger", trigger, "err", err)
			return 0, err
		}
		n.log.Info(what+" reloaded", append([]any{"trigger", trigger, "rules", count, "file", file}, attrs...)...)
		return count, nil
	}
	for _, h := range n.https {
		h.Handle("/"+what+"/reload", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			count, err := reload("POST /" + what + "/reload")
			if err != nil {
				http.Error(w, what+" reload rejected: "+err.Error(), http.StatusUnprocessableEntity)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, "{\"rules\":%d}\n", count)
		}))
	}
	done := make(chan struct{})
	go func() {
		engine.Run(ctx)
		close(done)
	}()
	sweep := func() {
		for _, s := range engine.RuleStatuses() {
			if st := common(s); st.LastError != "" {
				n.log.Warn("rule finished with error", "file", file, "rule", st.Name, "err", st.LastError)
			}
		}
	}
	n.loops = append(n.loops, &ruleLoop{reload: reload, done: done, sweep: sweep})
}

// startAlerting builds notifiers, engine and endpoints from -rules and
// -notify and starts the evaluation loop.  A no-op without -rules.
func (n *Node) startAlerting(ctx context.Context) error {
	cfg, log := &n.cfg, n.log
	if len(cfg.Rules) == 0 {
		return nil
	}
	specs := cfg.Notifiers
	if len(specs) == 0 {
		specs = []string{"stdout"}
	}
	notifiers := make([]alert.Notifier, 0, len(specs))
	for _, spec := range specs {
		nt, err := alert.ParseNotifier(ctx, spec)
		if err != nil {
			for _, nt := range notifiers {
				_ = nt.Close()
			}
			return err
		}
		if w, ok := nt.(*alert.WebhookNotifier); ok {
			w.SetLogger(log)
		}
		notifiers = append(notifiers, nt)
	}
	fanout := alert.NewFanout(cfg.Buffer, notifiers...)
	fanout.SetLogger(log)
	fanout.Instrument(n.reg)
	n.notifiers = fanout
	// -group-wait puts a coalescing window in front of the fanout: N
	// instances of one rule tripping together become one notification.
	var notify alert.Publisher = fanout
	if cfg.GroupWait > 0 {
		n.grouper = alert.NewGrouper(fanout, cfg.GroupWait, nil)
		notify = n.grouper
	}
	// "Notifiers up" readiness: not ready once the fanout is closed.
	for _, h := range n.https {
		h.AddReadyCheck("notifiers", func() error {
			if fanout.Closed() {
				return fmt.Errorf("notifier fanout closed")
			}
			return nil
		})
	}
	engine, err := alert.NewEngine(alert.Options{
		Store:        n.store,
		DefaultEvery: cfg.defaultEvery(),
		Notify:       notify,
		Telemetry:    n.reg,
		// A fleet agent that stops pushing must not keep its alerts
		// firing forever off the frozen last window.  The horizon stays
		// clear of the adaptive stretch cap: a healthy static series
		// sampled every -adaptive interval must not be mistaken for a
		// dead one between its (legitimately sparse) collections.
		StaleAfter: staleHorizon(cfg.Adaptive),
		// The engine reports a rule's error when it changes, not once per
		// evaluation — a receiver evaluating fleet rules before the first
		// agent pushes would otherwise repeat "no series matches" at the
		// full cadence.
		OnError: func(rule string, err error) {
			log.Warn("rule evaluation failed", "file", cfg.RulesFile, "rule", rule, "err", err)
		},
	}, cfg.Rules)
	if err != nil {
		return err
	}
	for _, h := range n.https {
		h.Handle("/alerts", http.HandlerFunc(engine.HandleAlerts))
		h.Handle("/rules", http.HandlerFunc(engine.HandleRules))
	}
	runRules(ctx, n, "rules", cfg.RulesFile, engine,
		func(s alert.RuleStatus) rules.Status { return s.Status },
		func() (int, []any, error) {
			count, err := reloadRules(engine, cfg.RulesFile)
			return count, nil, err
		})
	log.Info("alerting started", "rules", len(cfg.Rules), "file", cfg.RulesFile, "group_wait", cfg.GroupWait)
	return nil
}

// startDeriving builds the recorded-rule engine and ingest routes from
// -derive and starts the evaluation loop.  Routes install on every HTTP
// sink's /ingest; emitted samples are appended to the store and also
// published to the dispatcher as "derive/<rule>" batches so push wires
// and /metrics carry derived series like collected ones.  A no-op
// without -derive.
func (n *Node) startDeriving(ctx context.Context) error {
	cfg, log := &n.cfg, n.log
	if cfg.DeriveFile == "" {
		return nil
	}
	installRoutes := func(routes []monitor.IngestRoute) {
		router := monitor.NewRouter(routes)
		router.Instrument(n.reg)
		for _, h := range n.https {
			h.SetRouter(router)
		}
	}
	installRoutes(cfg.DeriveRoutes)
	engine, err := derive.NewEngine(derive.Options{
		Store:        n.store,
		DefaultEvery: cfg.defaultEvery(),
		Dispatcher:   n.dispatcher,
		Telemetry:    n.reg,
		OnError: func(rule string, err error) {
			log.Warn("rule evaluation failed", "file", cfg.DeriveFile, "rule", rule, "err", err)
		},
	}, cfg.DeriveRules)
	if err != nil {
		return err
	}
	// Mounted on the HTTP sinks only, so there is an https[0] to ask.
	routeStatuses := func() []monitor.RouteStatus {
		if r := n.https[0].Router(); r != nil { // nil while no route is set
			return r.Statuses()
		}
		return nil
	}
	for _, h := range n.https {
		h.Handle("/derive", derive.StatusHandler(engine, routeStatuses))
	}
	runRules(ctx, n, "derive", cfg.DeriveFile, engine,
		func(s derive.RuleStatus) rules.Status { return s.Status },
		func() (int, []any, error) {
			count, routes, err := reloadDerive(engine, cfg.DeriveFile)
			if err != nil {
				return 0, nil, err
			}
			installRoutes(routes)
			return count, []any{"routes", len(routes)}, nil
		})
	log.Info("derive started",
		"rules", len(cfg.DeriveRules), "routes", len(cfg.DeriveRoutes), "file", cfg.DeriveFile)
	return nil
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
