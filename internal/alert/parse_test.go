package alert

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"likwid/internal/monitor"
)

func TestParseRuleGoodSpecs(t *testing.T) {
	tests := []struct {
		name string
		spec string
		want Rule
	}{
		{
			name: "issue example shape",
			spec: "mem_bw_low: avg(memory_bandwidth_mbytes_s, socket, 30s) < 2.0e9 for 60s",
			want: Rule{Name: "mem_bw_low", Fn: FnAvg, Metric: "memory_bandwidth_mbytes_s",
				Scope: monitor.ScopeSocket, ID: AllIDs, Lookback: 30, Cmp: CmpLT,
				Threshold: 2.0e9, For: 60},
		},
		{
			name: "source selector",
			spec: "node_bw: avg(nodeA-7/bandwidth, socket, 30s) < 2.0e9 for 60s",
			want: Rule{Name: "node_bw", Fn: FnAvg, Source: "nodeA-7", Metric: "bandwidth",
				Scope: monitor.ScopeSocket, ID: AllIDs, Lookback: 30, Cmp: CmpLT,
				Threshold: 2.0e9, For: 60},
		},
		{
			name: "source wildcard slice",
			spec: "rack_bw: min(rack1-*/bw, node, 30s) < 1 for 0s",
			want: Rule{Name: "rack_bw", Fn: FnMin, Source: "rack1-*", Metric: "bw",
				Scope: monitor.ScopeNode, ID: AllIDs, Lookback: 30, Cmp: CmpLT,
				Threshold: 1, For: 0},
		},
		{
			name: "reserved namespace stays a metric",
			spec: "threads: max(topo/socket_hw_threads, socket, 10s) > 12 for 0s",
			want: Rule{Name: "threads", Fn: FnMax, Metric: "topo/socket_hw_threads",
				Scope: monitor.ScopeSocket, ID: AllIDs, Lookback: 10, Cmp: CmpGT,
				Threshold: 12, For: 0},
		},
		{
			name: "quoted source forces the reserved word",
			spec: `odd: avg("event"/instr, node, 10s) > 1 for 0s`,
			want: Rule{Name: "odd", Fn: FnAvg, Source: "event", Metric: "instr",
				Scope: monitor.ScopeNode, ID: AllIDs, Lookback: 10, Cmp: CmpGT,
				Threshold: 1, For: 0},
		},
		{
			name: "quoted metric with slash is never split",
			spec: `q: avg("nodeA/bw", node, 10s) > 1 for 0s`,
			want: Rule{Name: "q", Fn: FnAvg, Metric: "nodeA/bw",
				Scope: monitor.ScopeNode, ID: AllIDs, Lookback: 10, Cmp: CmpGT,
				Threshold: 1, For: 0},
		},
		{
			name: "source with quoted metric",
			spec: `s: avg(nodeA/"DP MFlops/s", node, 10s) > 1 for 0s`,
			want: Rule{Name: "s", Fn: FnAvg, Source: "nodeA", Metric: "DP MFlops/s",
				Scope: monitor.ScopeNode, ID: AllIDs, Lookback: 10, Cmp: CmpGT,
				Threshold: 1, For: 0},
		},
		{
			name: "explicit id and every",
			spec: "hot0: max(temp, thread, 3, 10s) >= 95 for 0s every 5s",
			want: Rule{Name: "hot0", Fn: FnMax, Metric: "temp",
				Scope: monitor.ScopeThread, ID: 3, Lookback: 10, Cmp: CmpGE,
				Threshold: 95, For: 0, Every: 5 * time.Second},
		},
		{
			name: "quoted metric with spaces",
			spec: `flops_flat: rate("DP MFlops/s", node, 1m30s) <= 0 for 30s`,
			want: Rule{Name: "flops_flat", Fn: FnRate, Metric: "DP MFlops/s",
				Scope: monitor.ScopeNode, ID: AllIDs, Lookback: 90, Cmp: CmpLE,
				Threshold: 0, For: 30},
		},
		{
			name: "imbalance over sockets",
			spec: "bw_skew: imbalance(memory_bandwidth_mbytes_s, socket, 30s) > 0.5 for 1m",
			want: Rule{Name: "bw_skew", Fn: FnImbalance, Metric: "memory_bandwidth_mbytes_s",
				Scope: monitor.ScopeSocket, ID: AllIDs, Lookback: 30, Cmp: CmpGT,
				Threshold: 0.5, For: 60},
		},
		{
			name: "fleet wildcard",
			spec: "fleet_idle: avg(*/dp_mflops_s, node, 20s) < 1 for 40s",
			want: Rule{Name: "fleet_idle", Fn: FnAvg, Source: "*", Metric: "dp_mflops_s",
				Scope: monitor.ScopeNode, ID: AllIDs, Lookback: 20, Cmp: CmpLT,
				Threshold: 1, For: 40},
		},
		{
			name: "label matcher",
			spec: `job_bw: avg(bw{job="lbm"}, node, 30s) < 1 for 0s`,
			want: Rule{Name: "job_bw", Fn: FnAvg, Metric: "bw",
				Matchers: []LabelMatcher{{Name: "job", Value: "lbm"}},
				Scope:    monitor.ScopeNode, ID: AllIDs, Lookback: 30, Cmp: CmpLT,
				Threshold: 1, For: 0},
		},
		{
			name: "matchers sort canonically and compose with a source wildcard",
			spec: `fleet_job: avg(*/bw{job="lbm",cluster="em*"}, node, 30s) < 1 for 0s`,
			want: Rule{Name: "fleet_job", Fn: FnAvg, Source: "*", Metric: "bw",
				Matchers: []LabelMatcher{{Name: "cluster", Value: "em*"}, {Name: "job", Value: "lbm"}},
				Scope:    monitor.ScopeNode, ID: AllIDs, Lookback: 30, Cmp: CmpLT,
				Threshold: 1, For: 0},
		},
		{
			name: "quoted metric with matcher",
			spec: `qm: rate("DP MFlops/s"{job="lbm"}, node, 10s) <= 0 for 0s`,
			want: Rule{Name: "qm", Fn: FnRate, Metric: "DP MFlops/s",
				Matchers: []LabelMatcher{{Name: "job", Value: "lbm"}},
				Scope:    monitor.ScopeNode, ID: AllIDs, Lookback: 10, Cmp: CmpLE,
				Threshold: 0, For: 0},
		},
		{
			name: "compact whitespace",
			spec: "r:min(bw,node,1s)<1 for 0s",
			want: Rule{Name: "r", Fn: FnMin, Metric: "bw",
				Scope: monitor.ScopeNode, ID: AllIDs, Lookback: 1, Cmp: CmpLT,
				Threshold: 1, For: 0},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseRule(tt.spec, 1)
			if err != nil {
				t.Fatalf("ParseRule(%q) failed: %v", tt.spec, err)
			}
			tt.want.Line = 1
			if !reflect.DeepEqual(*got, tt.want) {
				t.Errorf("ParseRule(%q)\n got %+v\nwant %+v", tt.spec, *got, tt.want)
			}
			// String() must reparse to the same rule (the fuzz invariant,
			// pinned here on readable cases).
			again, err := ParseRule(got.String(), 1)
			if err != nil {
				t.Fatalf("reparse of %q failed: %v", got.String(), err)
			}
			if !reflect.DeepEqual(again, got) {
				t.Errorf("round trip of %q changed the rule:\n got %+v\nwant %+v", got.String(), *again, *got)
			}
		})
	}
}

// TestParseRuleBadSpecs pins that malformed specs fail fast and the
// error carries a line:column position pointing at the offending token.
func TestParseRuleBadSpecs(t *testing.T) {
	tests := []struct {
		name    string
		spec    string
		wantErr string // substring
		wantPos string // "line:col" substring; "" = only check wantErr
	}{
		{"empty", "", "expected rule name", "1:1"},
		{"missing name", ": avg(bw, node, 1s) < 1 for 0s", "expected rule name", "1:1"},
		{"bad name chars", "a b: avg(bw, node, 1s) < 1 for 0s", `expected ":"`, "1:3"},
		{"name with slash", "a/b: avg(bw, node, 1s) < 1 for 0s", "bad rule name", "1:1"},
		{"missing colon", "r avg(bw, node, 1s) < 1 for 0s", `expected ":"`, "1:3"},
		{"unknown function", "r: foo(bw, node, 1s) < 1 for 0s", "unknown function", "1:4"},
		{"missing paren", "r: avg bw, node, 1s < 1 for 0s", `expected "("`, "1:8"},
		{"empty metric", "r: avg(, node, 1s) < 1 for 0s", "expected a metric", "1:8"},
		{"unterminated quote", `r: avg("bw, node, 1s) < 1 for 0s`, "unterminated quoted metric", "1:8"},
		{"bad scope", "r: avg(bw, galaxy, 1s) < 1 for 0s", "bad scope", "1:12"},
		{"negative id", "r: avg(bw, node, -1, 1s) < 1 for 0s", "id must not be negative", "1:18"},
		{"imbalance with id", "r: imbalance(bw, socket, 0, 1s) < 1 for 0s", "drop the id argument", "1:26"},
		{"bad lookback", "r: avg(bw, node, soon) < 1 for 0s", "bad lookback", "1:18"},
		{"zero lookback", "r: avg(bw, node, 0s) < 1 for 0s", "bad lookback", "1:18"},
		{"missing comparison", "r: avg(bw, node, 1s) 1 for 0s", "expected comparison", "1:22"},
		{"equals comparison", "r: avg(bw, node, 1s) = 1 for 0s", "expected comparison", "1:22"},
		{"bad threshold", "r: avg(bw, node, 1s) < high for 0s", "bad threshold", "1:24"},
		{"inf threshold", "r: avg(bw, node, 1s) < inf for 0s", "bad threshold", "1:24"},
		{"nan threshold", "r: avg(bw, node, 1s) < nan for 0s", "bad threshold", "1:24"},
		{"missing for", "r: avg(bw, node, 1s) < 1", `expected "for DURATION"`, ""},
		{"wrong keyword", "r: avg(bw, node, 1s) < 1 if 0s", `expected "for DURATION"`, "1:26"},
		{"bad hold", "r: avg(bw, node, 1s) < 1 for ever", "bad hold", "1:30"},
		{"negative hold", "r: avg(bw, node, 1s) < 1 for -5s", "must be positive", "1:30"},
		{"bad every keyword", "r: avg(bw, node, 1s) < 1 for 0s daily", `only "every DURATION"`, "1:33"},
		{"zero every", "r: avg(bw, node, 1s) < 1 for 0s every 0s", "must be positive", "1:39"},
		{"trailing junk", "r: avg(bw, node, 1s) < 1 for 0s every 5s oops", "unexpected trailing", ""},
		{"empty matcher block", "r: avg(bw{}, node, 1s) < 1 for 0s", "expected a label name", ""},
		{"unquoted matcher value", "r: avg(bw{job=lbm}, node, 1s) < 1 for 0s", "expected quoted string", ""},
		{"empty matcher value", `r: avg(bw{job=""}, node, 1s) < 1 for 0s`, "empty matcher value", ""},
		{"bad matcher name", `r: avg(bw{1job="x"}, node, 1s) < 1 for 0s`, "bad matcher label name", ""},
		{"duplicate matcher", `r: avg(bw{job="a",job="b"}, node, 1s) < 1 for 0s`, "duplicate matcher label", ""},
		{"reserved matcher name", `r: avg(bw{source="nodeA"}, node, 1s) < 1 for 0s`, "reserved", ""},
		{"unclosed matcher block", `r: avg(bw{job="a", node, 1s) < 1 for 0s`, `expected "="`, ""},
		{"missing equals", `r: avg(bw{job "a"}, node, 1s) < 1 for 0s`, `expected "="`, ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseRule(tt.spec, 1)
			if err == nil {
				t.Fatalf("ParseRule(%q) succeeded, want error %q", tt.spec, tt.wantErr)
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error = %v, want substring %q", err, tt.wantErr)
			}
			if tt.wantPos != "" && !strings.Contains(err.Error(), "line "+tt.wantPos) {
				t.Errorf("error = %v, want position %q", err, tt.wantPos)
			}
		})
	}
}

func TestParseRulesFile(t *testing.T) {
	src := `
# fleet alerting
mem_bw_low: avg(memory_bandwidth_mbytes_s, socket, 30s) < 2000 for 60s

bw_skew: imbalance("memory bandwidth # not a comment", socket, 30s) > 0.5 for 1m  # trailing comment
`
	rules, err := ParseRules(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("parsed %d rules, want 2", len(rules))
	}
	if rules[0].Name != "mem_bw_low" || rules[0].Line != 3 {
		t.Errorf("rule 0 = %s on line %d, want mem_bw_low on line 3", rules[0].Name, rules[0].Line)
	}
	if rules[1].Metric != "memory bandwidth # not a comment" {
		t.Errorf("quoted '#' was treated as a comment: metric = %q", rules[1].Metric)
	}

	if rules, err := ParseRules("# only comments\n\n"); err != nil || len(rules) != 0 {
		t.Errorf("comment-only file = (%v, %v), want (no rules, nil)", rules, err)
	}

	// Errors carry the file line.
	_, err = ParseRules("ok: avg(bw, node, 1s) < 1 for 0s\nbroken: avg(bw, node) < 1 for 0s")
	if err == nil || !strings.Contains(err.Error(), "line 2:") {
		t.Errorf("multi-line error = %v, want a line 2 position", err)
	}

	// Duplicate names would share one history series: rejected.
	_, err = ParseRules("r: avg(bw, node, 1s) < 1 for 0s\nr: max(bw, node, 1s) > 9 for 0s")
	if err == nil || !strings.Contains(err.Error(), "already defined on line 1") {
		t.Errorf("duplicate rule error = %v, want 'already defined on line 1'", err)
	}
}

func TestRuleSelectorMatching(t *testing.T) {
	node := func(source, metric string) monitor.Key {
		return monitor.Key{Source: source, Metric: metric, Scope: monitor.ScopeNode}
	}
	tests := []struct {
		source, metric string // rule selector dimensions
		key            monitor.Key
		want           bool
	}{
		{"", "bw", node("", "bw"), true},
		{"", "bw", node("", "bandwidth"), false},
		{"", "bw", node("nodeA", "bw"), false},                                           // no source selector = local only
		{"", "memory_bandwidth_mbytes_s", node("", "Memory bandwidth [MBytes/s]"), true}, // sanitized form
		{"*", "bw", node("nodeA", "bw"), true},
		{"*", "bw", node("", "bw"), true}, // '*' spans the fleet, local included
		{"node*", "bw", node("nodeA", "bw"), true},
		{"node*", "bw", node("rack1", "bw"), false},
		{"nodeA", "bw", node("nodeA", "bw"), true},
		{"nodeA", "bw", node("nodeB", "bw"), false},
		{"nodeA", "mem*", node("nodeA", "memory_bandwidth_mbytes_s"), true},
		{"*", "alert/r", node("nodeA", "alert/r"), false}, // alert history never matches
		{"", "alert/r", node("", "alert/r"), false},
	}
	// The live path: every key of the table sits in one store, and a rule
	// matches a key when the engine's resolution of it contains the key.
	store := monitor.NewStore(4)
	for _, tt := range tests {
		store.Append(tt.key, monitor.Point{Time: 1, Value: 1})
	}
	e, err := NewEngine(Options{Store: store}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		r := Rule{Source: tt.source, Metric: tt.metric, Scope: monitor.ScopeNode}
		got := false
		for _, k := range e.resolve(&r) {
			got = got || k == tt.key
		}
		if got != tt.want {
			t.Errorf("selector (%q,%q) vs key %+v = %v, want %v", tt.source, tt.metric, tt.key, got, tt.want)
		}
	}
}
