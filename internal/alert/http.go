package alert

import (
	"net/http"

	"likwid/internal/rules"
)

// The alert API, mounted onto the agent's HTTPSink next to /metrics and
// /query (HTTPSink.Handle keeps the monitor package free of an alert
// dependency):
//
//	GET /alerts  active alert instances (pending and firing)
//	GET /rules   per-rule bookkeeping: spec, cadence, evaluations,
//	             last evaluation time, last error, instance counts
//
// Alert *history* needs no endpoint of its own: transitions are recorded
// as "alert/<name>" store series, so /query?metric=alert/NAME&scope=...
// windows them like any metric.

// alertsResponse is the GET /alerts payload.
type alertsResponse struct {
	Alerts []InstanceStatus `json:"alerts"`
}

// HandleAlerts serves the active alert instances as JSON.
func (e *Engine) HandleAlerts(w http.ResponseWriter, r *http.Request) {
	rules.ServeJSON(w, r, alertsResponse{Alerts: e.Alerts()})
}

// rulesResponse is the GET /rules payload.
type rulesResponse struct {
	Rules []RuleStatus `json:"rules"`
}

// HandleRules serves the per-rule bookkeeping as JSON.
func (e *Engine) HandleRules(w http.ResponseWriter, r *http.Request) {
	rules.ServeJSON(w, r, rulesResponse{Rules: e.RuleStatuses()})
}
