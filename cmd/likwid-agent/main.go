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
	"os"
	"os/signal"
	"syscall"

	"likwid/internal/node"
)

func main() {
	cfg, err := parseAgentFlags(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "likwid-agent:", err)
		os.Exit(1)
	}
	log := cfg.newLogger(os.Stderr)
	slog.SetDefault(log)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.duration)
		defer cancel()
	}
	n, err := node.New(cfg.Config, log)
	if err == nil {
		// SIGHUP hot-reloads the rule files (-rules, -derive) in agent and
		// receiver modes alike.  Without a rule file it keeps its default
		// action.
		if cfg.RulesFile != "" || cfg.DeriveFile != "" {
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			go func() {
				for {
					select {
					case <-ctx.Done():
						return
					case <-hup:
						n.Reload("SIGHUP")
					}
				}
			}()
		}
		err = n.Run(ctx)
		if cerr := n.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		log.Error("likwid-agent failed", "err", err)
		os.Exit(1)
	}
}
