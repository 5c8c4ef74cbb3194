package derive

import (
	"fmt"
	"slices"
	"strings"

	"likwid/internal/monitor"
	"likwid/internal/spec"
)

// The derive file holds recorded rules and ingest routes, one per line.
// A rule is the grammar of internal/spec with '=' after the name:
//
//	NAME = FN([SOURCE/]METRIC[{LABEL="VALUE",...}][, SCOPE][, WINDOW]) [by (DIM, ...)] [over WINDOW] [every DUR]
//
//	cluster_flops = sum(flops_dp{cluster="emmy"}) by (source) over 30s every 10s
//	fleet_bw      = avg(memory_bandwidth_mbytes_s, socket) over 1m
//	job_nodes     = count(*/dp_mflops_s) by (job) over 30s
//	ramp          = rate(cluster_flops, 1m)
//
// FN is sum | avg | min | max | count | rate; SCOPE defaults to node;
// DIM is "source" or a label name.  A rule aggregates across ids, so
// it names none, and an omitted SOURCE matches every source (a roll-up
// sweeps the fleet), not only local series.
//
// A route is applied by the receiver before samples are interned:
//
//	route drop SELECTOR
//	route rename SELECTOR -> NEWMETRIC
//	route relabel SELECTOR set LABEL="VALUE"[, LABEL=""...]
//
//	route drop */cpu_temp_core*
//	route rename */DP_MFLOPS -> flops_dp
//	route relabel node*/flops_dp set cluster="emmy", rack=""
//
// A relabel with an empty value deletes the label.  Routes run in file
// order per sample; a drop ends the sample's processing and a rename
// feeds later routes.  Errors carry line:column positions.

// ParseRule parses one rule line; lineNo is the 1-based line for error
// positions.
func ParseRule(line string, lineNo int) (*Rule, error) {
	s := spec.New("derive", line, lineNo)
	name, col, err := s.Head('=')
	if err != nil {
		return nil, err
	}
	if name == "route" {
		return nil, s.Errf(col, "\"route\" is the routing keyword, not a usable rule name")
	}
	e, err := s.ParseExpr(fnNames[:])
	if err != nil {
		return nil, err
	}
	if e.ID != spec.NoID {
		return nil, s.Errf(e.IDCol, "a recorded rule aggregates across ids; drop the id argument")
	}
	every, err := s.End()
	if err != nil {
		return nil, err
	}
	return &Rule{Name: name, Fn: Fn(slices.Index(fnNames[:], e.Fn)), Source: e.Source, Metric: e.Metric,
		Matchers: e.Matchers, Scope: e.Scope, By: e.By, Over: e.Window, Every: every, Line: lineNo,
	}, nil
}

// parseRoute parses one "route ACTION SELECTOR ..." line; the leading
// "route" word is already consumed.
func parseRoute(s *spec.Scanner, lineNo int) (monitor.IngestRoute, error) {
	var route monitor.IngestRoute
	route.Line = lineNo

	actionWord, col := s.Word()
	switch actionWord {
	case "drop":
		route.Action = monitor.RouteDrop
	case "rename":
		route.Action = monitor.RouteRename
	case "relabel":
		route.Action = monitor.RouteRelabel
	default:
		return route, s.Errf(col, "unknown route action %q (drop, rename, relabel)", actionWord)
	}

	source, metric, col, err := s.Selector()
	if err != nil {
		return route, err
	}
	if metric == "" {
		return route, s.Errf(col, "expected a metric selector")
	}
	route.Source, route.Metric = source, metric
	if route.Matchers, err = s.Matchers(); err != nil {
		return route, err
	}

	switch route.Action {
	case monitor.RouteRename:
		// "->": '-' is a word character, '>' a delimiter, so the arrow
		// reads as the word "-" followed by '>'.
		w, col := s.Word()
		if w != "-" {
			return route, s.Errf(col, "expected \"->\" after the selector, got %q", w)
		}
		if err := s.Expect('>', "completing \"->\""); err != nil {
			return route, err
		}
		name, col, err := renameTarget(s)
		if err != nil {
			return route, err
		}
		switch {
		case name == "":
			return route, s.Errf(col, "expected the new metric name after \"->\"")
		case strings.Contains(name, "*"):
			return route, s.Errf(col, "new metric name %q must be literal (no '*')", name)
		}
		if seg, _, found := strings.Cut(name, "/"); found && monitor.ReservedNamespace(seg) {
			return route, s.Errf(col, "new metric name %q lands in the reserved %s/ namespace", name, seg)
		}
		route.NewMetric = name
	case monitor.RouteRelabel:
		w, col := s.Word()
		if w != "set" {
			return route, s.Errf(col, "expected \"set LABEL=\\\"VALUE\\\"\" after the selector, got %q", w)
		}
		seen := map[string]bool{}
		for {
			name, col := s.Word()
			if name == "" {
				return route, s.Errf(col, "expected a label name to set")
			}
			if !monitor.ValidLabelName(name) {
				return route, s.Errf(col, "bad label name %q (letters, digits, '_'; not starting with a digit)", name)
			}
			if monitor.ReservedLabelName(name) {
				return route, s.Errf(col, "label name %q is reserved (the suite emits source/scope/id itself)", name)
			}
			if seen[name] {
				return route, s.Errf(col, "duplicate label %q in the set clause", name)
			}
			seen[name] = true
			if err := s.Expect('=', "after the label name"); err != nil {
				return route, err
			}
			value, vcol, err := s.Quoted()
			if err != nil {
				return route, err
			}
			// An empty value deletes the label; anything else must be a
			// value the store would accept — a route must never write a
			// label the wire would have 400'd.
			if value != "" {
				if err := monitor.CheckLabelMap(map[string]string{name: value}); err != nil {
					return route, s.Errf(vcol, "%v", err)
				}
			}
			route.Set = append(route.Set, monitor.Label{Name: name, Value: value})
			if s.Accept(',') {
				continue
			}
			break
		}
	}
	if err := s.Done(); err != nil {
		return route, err
	}
	route.Spec = RenderRoute(&route)
	return route, nil
}

// renameTarget reads the new metric name of a rename route: a bare
// word or a quoted name.
func renameTarget(s *spec.Scanner) (string, int, error) {
	if s.Peek() == '"' {
		return s.Quoted()
	}
	name, col := s.Word()
	return name, col, nil
}

// RenderRoute renders a route back in spec syntax (canonical).
func RenderRoute(r *monitor.IngestRoute) string {
	var b strings.Builder
	fmt.Fprintf(&b, "route %s %s", r.Action, spec.RenderSelector(r.Source, r.Metric, r.Matchers))
	switch r.Action {
	case monitor.RouteRename:
		fmt.Fprintf(&b, " -> %s", spec.QuoteMetric(r.NewMetric))
	case monitor.RouteRelabel:
		b.WriteString(" set ")
		for i, set := range r.Set {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, `%s="%s"`, set.Name, set.Value)
		}
	}
	return b.String()
}

// ParseFile parses a whole derive file (spec.ParseFile): rules and
// routes, routes in file order.  Duplicate rule names are rejected, as
// they would write one output series from two definitions.
func ParseFile(src string) ([]*Rule, []monitor.IngestRoute, error) {
	var rules []*Rule
	var routes []monitor.IngestRoute
	err := spec.ParseFile("derive", src, func(line string, lineNo int) (string, error) {
		s := spec.New("derive", line, lineNo)
		if w, _ := s.Word(); w == "route" {
			route, err := parseRoute(s, lineNo)
			routes = append(routes, route)
			return "", err
		}
		r, err := ParseRule(line, lineNo)
		if err != nil {
			return "", err
		}
		rules = append(rules, r)
		return r.Name, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rules, routes, nil
}
