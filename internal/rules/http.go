package rules

import (
	"encoding/json"
	"net/http"
)

// ServeJSON answers a GET with v as one JSON document and any other
// method with 405 — the shape of every status endpoint the rule engines
// mount next to /metrics and /query.
func ServeJSON(w http.ResponseWriter, r *http.Request, v any) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
