package spec_test

import (
	"reflect"
	"strings"
	"testing"

	"likwid/internal/alert"
	"likwid/internal/derive"
)

// parseKind parses one rule line of the named kind into the rule and
// its canonical rendering.
func parseKind(kind, line string) (any, string, error) {
	if kind == "alert" {
		r, err := alert.ParseRule(line, 1)
		if err != nil {
			return nil, "", err
		}
		return r, r.String(), nil
	}
	r, err := derive.ParseRule(line, 1)
	if err != nil {
		return nil, "", err
	}
	return r, r.String(), nil
}

// TestRuleSpellings: either kind takes the window in the parentheses or
// after "over", and an alert may leave its scope out (node); each form
// parses to the same rule as the kind's canonical line, which is how
// the rule renders.
func TestRuleSpellings(t *testing.T) {
	tests := []struct {
		kind, line, canonical string
	}{
		{"alert", "o: avg(bw) over 30s > 1 for 0s", "o: avg(bw, node, 30s) > 1 for 0s"},
		{"alert", "o: avg(bw, 30s) > 1 for 0s", "o: avg(bw, node, 30s) > 1 for 0s"},
		{"alert", "o: avg(*/bw{job=\"lbm\"}, socket) over 1m < 2 for 1m every 5s",
			"o: avg(*/bw{job=\"lbm\"}, socket, 1m0s) < 2 for 1m0s every 5s"},
		{"alert", "hot: max(temp, thread, 3) over 10s >= 95 for 0s", "hot: max(temp, thread, 3, 10s) >= 95 for 0s"},
		{"alert", "r: rate(bw, 7, 10s) > 0 for 0s", "r: rate(bw, node, 7, 10s) > 0 for 0s"},
		{"derive", "w = sum(bw, socket, 30s)", "w = sum(bw, socket) over 30s"},
		{"derive", "w = sum(bw, 30s) by (job) every 5s", "w = sum(bw) by (job) over 30s every 5s"},
		{"derive", "w = count(*/bw, node, 1m30s)", "w = count(*/bw) over 1m30s"},
	}
	for _, tt := range tests {
		got, rendered, err := parseKind(tt.kind, tt.line)
		if err != nil {
			t.Errorf("%s %q: %v", tt.kind, tt.line, err)
			continue
		}
		want, _, err := parseKind(tt.kind, tt.canonical)
		if err != nil {
			t.Fatalf("%s canonical %q: %v", tt.kind, tt.canonical, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s %q parsed to %+v, want %+v as from %q", tt.kind, tt.line, got, want, tt.canonical)
		}
		if rendered != tt.canonical {
			t.Errorf("%s %q renders as %q, want %q", tt.kind, tt.line, rendered, tt.canonical)
		}
	}
}

// TestRuleRejections: what one kind cannot evaluate, and a window given
// in both places, fail with a positioned error.
func TestRuleRejections(t *testing.T) {
	tests := []struct {
		kind, line, wantErr string
	}{
		{"alert", "o: avg(bw) by (job) over 30s > 1 for 0s", `alert: line 1:12: an alert watches each series on its own; drop the "by" clause`},
		{"alert", "o: avg(bw, node, 30s) over 30s > 1 for 0s", `alert: line 1:23: window given twice`},
		{"alert", "o: avg(bw, node) > 1 for 0s", `alert: line 1:18: expected "over DURATION" or a window argument`},
		{"alert", "o: imbalance(bw, socket, 2) over 30s > 1 for 0s", "alert: line 1:26: imbalance aggregates across ids"},
		{"derive", "w = sum(bw, node, 3) over 30s", "derive: line 1:19: a recorded rule aggregates across ids; drop the id argument"},
		{"derive", "w = sum(bw, 3, 30s)", "derive: line 1:13: a recorded rule aggregates across ids"},
		{"derive", "w = sum(bw, 30s) over 30s", `derive: line 1:18: window given twice`},
		{"derive", "w = sum(bw) by (job)", `derive: line 1:21: expected "over DURATION" or a window argument`},
		{"derive", "w = sum(bw, 30s, node)", `derive: line 1:16: expected ")" after the arguments`},
		{"derive", "w = sum(bw, node, soon)", `derive: line 1:19: bad lookback "soon"`},
	}
	for _, tt := range tests {
		_, _, err := parseKind(tt.kind, tt.line)
		if err == nil || !strings.HasPrefix(err.Error(), tt.wantErr) {
			t.Errorf("%s %q: error %v, want %q", tt.kind, tt.line, err, tt.wantErr)
		}
	}
}
