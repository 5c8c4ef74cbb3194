package monitor

import (
	"fmt"
	"slices"
	"sync/atomic"

	"likwid/internal/telemetry"
)

// Ingest routing: the receiver's retag stage.  A fleet funnels pushes
// from dozens of agents through one /ingest endpoint; routes let the
// operator normalize that stream at the fan-in point — drop noisy
// series, rename metrics that differ across agent versions, stamp or
// strip labels — before anything is interned or stored.  Routes run in
// the decode aisle of handleIngest, on the decoded groupBatch (series
// groups with their uninterned label pairs), so a dropped group leaves
// no residue and a relabel never pays double interning.
//
// Routes are declared in the derive rule file (internal/derive parses
// them: "route drop ...", "route rename ... -> NAME", "route relabel
// ... set k=\"v\"") and handed to the sink as a Router via SetRouter.

// RouteAction is the transform an ingest route applies.
type RouteAction int

const (
	// RouteDrop discards matching samples.
	RouteDrop RouteAction = iota
	// RouteRename rewrites the metric name of matching samples.
	RouteRename
	// RouteRelabel sets (or, with an empty value, deletes) labels on
	// matching samples.
	RouteRelabel
)

var routeActionNames = [...]string{"drop", "rename", "relabel"}

// String returns the spec-language action name.
func (a RouteAction) String() string {
	if a < 0 || int(a) >= len(routeActionNames) {
		return fmt.Sprintf("action(%d)", int(a))
	}
	return routeActionNames[a]
}

// IngestRoute is one parsed routing transform.
type IngestRoute struct {
	// Source selects samples by pushing agent ('*' wildcards).  Empty
	// matches every source — a route is a fan-in transform, so unlike an
	// alert selector it has no "local only" reading.
	Source string
	// Metric selects samples by metric name: exact, '*' wildcards, or
	// sanitized-form equality (monitor.MatchMetric).
	Metric string
	// Matchers restrict the route to samples whose wire labels carry
	// every named label with a matching value ('*' wildcards).
	Matchers []Label
	// Action is the transform applied to matching samples.
	Action RouteAction
	// NewMetric is the replacement name (RouteRename only).
	NewMetric string
	// Set are the label assignments (RouteRelabel only); an empty Value
	// deletes the label.
	Set []Label
	// Spec is the route line in spec syntax, for status reporting.
	Spec string
	// Line is the 1-based line of the route in its spec file.
	Line int
}

// matches reports whether the route picks one wire series group.
func (r *IngestRoute) matches(g *sampleGroup) bool {
	if r.Source != "" && !MatchSource(r.Source, g.key.Source) {
		return false
	}
	if !matchLabelPairs(r.Matchers, g.pairs) {
		return false
	}
	return MatchMetric(r.Metric, g.key.Metric)
}

// routeState pairs a route with its hit accounting.
type routeState struct {
	route   IngestRoute
	matched atomic.Uint64
}

// Router applies an ordered route list to a decoded ingest batch.  It
// is immutable after construction — reload builds a new Router and the
// sink swaps the pointer — so Apply runs lock-free under concurrent
// ingest handlers; the per-route counters are atomics.
type Router struct {
	routes []*routeState

	// Registry counters by action, resolved by Instrument (nil until
	// then).  The registry dedups by id, so a reloaded Router's
	// Instrument returns the same underlying counters and fleet totals
	// survive route-file reloads.
	tRouted [len(routeActionNames)]*telemetry.Counter
}

// NewRouter builds a Router over an ordered route list.
func NewRouter(routes []IngestRoute) *Router {
	r := &Router{routes: make([]*routeState, len(routes))}
	for i := range routes {
		r.routes[i] = &routeState{route: routes[i]}
	}
	return r
}

// Len returns the number of routes.
func (r *Router) Len() int { return len(r.routes) }

// Instrument registers the routing counters on reg.
func (r *Router) Instrument(reg *telemetry.Registry) {
	for a, name := range routeActionNames {
		r.tRouted[a] = reg.Counter("likwid_ingest_routed_total", "action", name)
	}
}

// RouteStatus is one route's spec and hit accounting, the GET /derive
// status shape.
type RouteStatus struct {
	Spec    string `json:"spec"`
	Action  string `json:"action"`
	Matched uint64 `json:"matched"`
}

// Statuses lists every route with its match count, in route order.
func (r *Router) Statuses() []RouteStatus {
	out := make([]RouteStatus, len(r.routes))
	for i, rs := range r.routes {
		out[i] = RouteStatus{
			Spec:    rs.route.Spec,
			Action:  rs.route.Action.String(),
			Matched: rs.matched.Load(),
		}
	}
	return out
}

// apply runs the route list over a decoded batch, in route order per
// series group (a group shares the identity routes match on, so it is
// routed once and the counters advance by its sample count, tallied in
// b.routed): a drop ends
// that group's processing; a rename feeds the new name to later routes;
// a relabel edits its own copy of the group's pairs.  Surviving groups
// are compacted in place; a dropped group's rows stay in the columns,
// unreferenced.
//
// A relabel that pushes a group past the label-count cap rejects the
// whole batch (the ingest contract is all-or-nothing): the route file
// and the payload disagree, and silently dropping labels would hide
// it.
func (r *Router) apply(b *groupBatch) error {
	b.routed = make([]uint64, len(r.routes))
	defer r.count(b.routed)
	kept := b.groups[:0]
	for _, g := range b.groups {
		rows := uint64(g.hi - g.lo)
		dropped, copied := false, false
		relabelled := "?" // the last relabel applied, for the over-cap error
		for i, rs := range r.routes {
			if !rs.route.matches(&g) {
				continue
			}
			b.routed[i] += rows
			switch rs.route.Action {
			case RouteDrop:
				dropped = true
			case RouteRename:
				g.key.Metric = rs.route.NewMetric
			case RouteRelabel:
				if !copied {
					g.pairs = append(make([]Label, 0, len(g.pairs)+len(rs.route.Set)), g.pairs...)
					g.set, copied = nil, true // the group owns its pairs now
				}
				for _, set := range rs.route.Set {
					g.pairs = setPair(g.pairs, set)
				}
				relabelled = rs.route.Spec
			}
			if dropped {
				break
			}
		}
		if dropped {
			continue
		}
		if len(g.pairs) > maxLabels {
			return fmt.Errorf("monitor: route %q leaves sample labels %q over the limit of %d labels",
				relabelled, encodePairs(g.pairs), maxLabels)
		}
		kept = append(kept, g)
	}
	b.groups = kept
	return nil
}

// count advances each route's match counter, and its action's registry
// counter, by the rows routed[i] it matched: once per applied batch, and
// once per payload that repeats a memoized identity (ingestShape).
func (r *Router) count(routed []uint64) {
	for i, n := range routed {
		if rs := r.routes[i]; n > 0 {
			rs.matched.Add(n)
			if c := r.tRouted[rs.route.Action]; c != nil {
				c.Add(n)
			}
		}
	}
}

// setPair applies one relabel assignment to name-sorted pairs, keeping
// them sorted: an empty value deletes the label, anything else sets it.
func setPair(pairs []Label, set Label) []Label {
	i, found := slices.BinarySearchFunc(pairs, set, cmpLabelName)
	if found {
		pairs = slices.Delete(pairs, i, i+1)
	}
	if set.Value != "" {
		pairs = slices.Insert(pairs, i, set)
	}
	return pairs
}
