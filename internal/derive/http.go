package derive

import (
	"net/http"

	"likwid/internal/monitor"
	"likwid/internal/rules"
)

// The derive API, mounted onto the agent's HTTPSink next to /metrics
// and /query (HTTPSink.Handle keeps the monitor package free of a
// derive dependency):
//
//	GET /derive  per-rule bookkeeping (spec, cadence, evaluations,
//	             emitted samples, selector fan-out, last error) plus
//	             the ingest routes with their match counts
//
// Derived *data* needs no endpoint of its own: outputs are first-class
// store series, so /query?metric=NAME (or metric=family_*) windows
// them like any metric.

// statusResponse is the GET /derive payload.
type statusResponse struct {
	Rules  []RuleStatus          `json:"rules"`
	Routes []monitor.RouteStatus `json:"routes"`
}

// StatusHandler serves the engine's rule bookkeeping and, when routes
// is non-nil, the ingest routes' hit accounting.  Either part may be
// absent (a receiver can run routes without rules, an agent rules
// without routes), so both engine and routes may be nil.
func StatusHandler(e *Engine, routes func() []monitor.RouteStatus) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp := statusResponse{Rules: []RuleStatus{}, Routes: []monitor.RouteStatus{}}
		if e != nil {
			resp.Rules = e.RuleStatuses()
		}
		if routes != nil {
			if sts := routes(); sts != nil {
				resp.Routes = sts
			}
		}
		rules.ServeJSON(w, r, resp)
	})
}
