package derive

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"likwid/internal/monitor"
)

func TestParseRuleForms(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want Rule
	}{
		{
			name: "issue example",
			in:   `cluster_flops = sum(flops_dp{cluster="emmy"}) by (source) over 30s every 10s`,
			want: Rule{
				Name: "cluster_flops", Fn: FnSum, Metric: "flops_dp",
				Matchers: []monitor.Label{{Name: "cluster", Value: "emmy"}},
				Scope:    monitor.ScopeNode, By: []string{"source"},
				Over: 30, Every: 10 * time.Second,
			},
		},
		{
			name: "scoped selector",
			in:   `fleet_bw = avg(memory_bandwidth_mbytes_s, socket) over 1m`,
			want: Rule{
				Name: "fleet_bw", Fn: FnAvg, Metric: "memory_bandwidth_mbytes_s",
				Scope: monitor.ScopeSocket, Over: 60,
			},
		},
		{
			name: "source wildcard and label group",
			in:   `job_nodes = count(node*/dp_mflops_s) by (job, partition) over 30s`,
			want: Rule{
				Name: "job_nodes", Fn: FnCount, Source: "node*", Metric: "dp_mflops_s",
				Scope: monitor.ScopeNode, By: []string{"job", "partition"}, Over: 30,
			},
		},
		{
			name: "quoted metric with spaces",
			in:   `ramp = rate("DP MFlops/s") over 90s`,
			want: Rule{
				Name: "ramp", Fn: FnRate, Metric: "DP MFlops/s",
				Scope: monitor.ScopeNode, Over: 90,
			},
		},
		{
			name: "min and max",
			in:   `floor = min(*/bw) over 10s`,
			want: Rule{
				Name: "floor", Fn: FnMin, Source: "*", Metric: "bw",
				Scope: monitor.ScopeNode, Over: 10,
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, err := ParseRule(tt.in, 1)
			if err != nil {
				t.Fatal(err)
			}
			tt.want.Line = 1
			if !reflect.DeepEqual(*r, tt.want) {
				t.Fatalf("rule = %+v, want %+v", *r, tt.want)
			}
		})
	}
}

func TestParseRuleRoundTrip(t *testing.T) {
	ins := []string{
		`cluster_flops = sum(flops_dp{cluster="emmy"}) by (source) over 30s every 10s`,
		`fleet_bw = avg(memory_bandwidth_mbytes_s, socket) over 1m`,
		`job_nodes = count(node*/dp_mflops_s) by (job, partition) over 30s`,
		`ramp = rate("DP MFlops/s") over 1m30s`,
	}
	for _, in := range ins {
		r, err := ParseRule(in, 1)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		rendered := r.String()
		r2, err := ParseRule(rendered, 1)
		if err != nil {
			t.Fatalf("re-parse %q: %v", rendered, err)
		}
		if r2.String() != rendered {
			t.Errorf("round trip diverged:\n  first  %q\n  second %q", rendered, r2.String())
		}
	}
}

func TestParseRuleErrors(t *testing.T) {
	tests := []struct {
		in   string
		frag string // expected error fragment
	}{
		{``, "expected rule name"},
		{`x y`, `expected "="`},
		{`x = frob(bw) over 30s`, "unknown function"},
		{`x = sum() over 30s`, "expected a metric selector"},
		{`x = sum(bw, galaxy) over 30s`, "bad scope"},
		{`x = sum(bw) over`, "expected window"},
		{`x = sum(bw) over 0s`, "must be positive"},
		{`x = sum(bw) by () over 30s`, "expected a grouping dimension"},
		{`x = sum(bw) by (scope) over 30s`, "reserved"},
		{`x = sum(bw) by (job, job) over 30s`, "duplicate grouping"},
		{`x = sum(bw) by (9bad) over 30s`, "bad grouping label"},
		{`x = sum(bw) over 30s every`, "expected evaluation"},
		{`x = sum(bw) over 30s nonsense`, `unexpected "nonsense"`},
		{`x = sum(bw) over 30s every 10s trailing`, "unexpected trailing"},
		{`route = sum(bw) over 30s`, "routing keyword"},
		{`x = sum(bw{source="a"}) over 30s`, "reserved"},
	}
	for _, tt := range tests {
		_, err := ParseRule(tt.in, 3)
		if err == nil {
			t.Errorf("%q: parsed, want error containing %q", tt.in, tt.frag)
			continue
		}
		if !strings.Contains(err.Error(), tt.frag) {
			t.Errorf("%q: error %q, want fragment %q", tt.in, err, tt.frag)
		}
		if !strings.HasPrefix(err.Error(), "derive: line 3:") {
			t.Errorf("%q: error %q lacks the derive line prefix", tt.in, err)
		}
	}
}

func TestParseFileRulesAndRoutes(t *testing.T) {
	src := `
# cluster roll-ups
cluster_flops = sum(flops_dp) by (source) over 30s

route drop */cpu_temp*
route rename */DP_MFLOPS -> flops_dp
route relabel node*/flops_dp{job="lbm"} set cluster="emmy", rack=""

fleet_nodes = count(*/flops_dp) over 30s every 5s
`
	rules, routes, err := ParseFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].Name != "cluster_flops" || rules[1].Name != "fleet_nodes" {
		t.Fatalf("rules = %+v, want cluster_flops + fleet_nodes", rules)
	}
	if len(routes) != 3 {
		t.Fatalf("routes = %+v, want 3", routes)
	}
	if routes[0].Action != monitor.RouteDrop || routes[0].Source != "*" || routes[0].Metric != "cpu_temp*" {
		t.Errorf("drop route = %+v", routes[0])
	}
	if routes[1].Action != monitor.RouteRename || routes[1].NewMetric != "flops_dp" {
		t.Errorf("rename route = %+v", routes[1])
	}
	rl := routes[2]
	if rl.Action != monitor.RouteRelabel || len(rl.Set) != 2 ||
		rl.Set[0] != (monitor.Label{Name: "cluster", Value: "emmy"}) ||
		rl.Set[1] != (monitor.Label{Name: "rack", Value: ""}) {
		t.Errorf("relabel route = %+v", rl)
	}
	if len(rl.Matchers) != 1 || rl.Matchers[0] != (monitor.Label{Name: "job", Value: "lbm"}) {
		t.Errorf("relabel matchers = %+v", rl.Matchers)
	}
	// Route specs round-trip through the renderer.
	for _, route := range routes {
		_, reparsed, err := ParseFile(route.Spec)
		if err != nil {
			t.Fatalf("re-parse %q: %v", route.Spec, err)
		}
		if len(reparsed) != 1 || reparsed[0].Spec != route.Spec {
			t.Errorf("route round trip diverged: %q vs %+v", route.Spec, reparsed)
		}
	}
}

func TestParseFileDuplicateRule(t *testing.T) {
	_, _, err := ParseFile("x = sum(bw) over 30s\nx = avg(bw) over 30s\n")
	if err == nil || !strings.Contains(err.Error(), "already defined") {
		t.Fatalf("duplicate rule err = %v", err)
	}
}

func TestParseRouteErrors(t *testing.T) {
	tests := []struct {
		in   string
		frag string
	}{
		{`route squash bw`, "unknown route action"},
		{`route drop`, "expected a metric selector"},
		{`route rename bw`, `expected "->"`},
		{`route rename bw -> `, "expected the new metric name"},
		{`route rename bw -> new*`, "must be literal"},
		{`route rename bw -> "alert/x"`, "reserved"},
		{`route relabel bw`, `expected "set`},
		{`route relabel bw set`, "expected a label name"},
		{`route relabel bw set source="x"`, "reserved"},
		{`route relabel bw set job="a,b"`, "bad value"},
		{`route drop bw trailing`, "unexpected trailing"},
	}
	for _, tt := range tests {
		_, _, err := ParseFile(tt.in)
		if err == nil {
			t.Errorf("%q: parsed, want error containing %q", tt.in, tt.frag)
			continue
		}
		if !strings.Contains(err.Error(), tt.frag) {
			t.Errorf("%q: error %q, want fragment %q", tt.in, err, tt.frag)
		}
	}
}

func TestRuleMatches(t *testing.T) {
	lbm, _ := monitor.MakeLabels(map[string]string{"job": "lbm"})
	r := &Rule{Name: "out", Fn: FnSum, Metric: "bw", Scope: monitor.ScopeNode, Over: 30}
	wild := &Rule{Name: "sweep", Fn: FnCount, Metric: "*", Scope: monitor.ScopeNode, Over: 30}
	chain := &Rule{Name: "c", Fn: FnRate, Metric: "other_out", Scope: monitor.ScopeNode, Over: 30}
	other := &Rule{Name: "other_out", Fn: FnSum, Metric: "bw", Scope: monitor.ScopeNode, Over: 30}

	// The live path: every key below sits in one store under an engine
	// whose loaded rules make "out" and "other_out" derived names, and a
	// rule matches a key when its resolution has the key in some group.
	remote := monitor.Key{Source: "nodeA", Metric: "bw", Scope: monitor.ScopeNode}
	local := monitor.Key{Metric: "bw", Scope: monitor.ScopeNode, Labels: lbm}
	ownOut := monitor.Key{Metric: "out", Scope: monitor.ScopeNode}
	socket := monitor.Key{Metric: "bw", Scope: monitor.ScopeSocket}
	history := monitor.Key{Metric: "alert/mem_bw_low", Scope: monitor.ScopeNode}
	otherOut := monitor.Key{Metric: "other_out", Scope: monitor.ScopeNode}
	st := monitor.NewStore(4)
	for _, k := range []monitor.Key{remote, local, ownOut, socket, history, otherOut} {
		st.Append(k, monitor.Point{Time: 1, Value: 1})
	}
	e := newTestEngine(t, st, r, other)
	matches := func(r *Rule, k monitor.Key) bool {
		for _, g := range e.resolve(r).groups {
			for _, member := range g.keys {
				if member == k {
					return true
				}
			}
		}
		return false
	}

	if !matches(r, remote) {
		t.Error("omitted source must match remote series (fleet roll-up)")
	}
	if !matches(r, local) {
		t.Error("omitted source must match local series too")
	}
	if matches(r, ownOut) {
		t.Error("a rule must not match its own output")
	}
	if matches(r, socket) {
		t.Error("scope mismatch must not match")
	}
	if matches(wild, history) {
		t.Error("wildcard must not match alert histories")
	}
	if matches(wild, otherOut) {
		t.Error("wildcard must not match other rules' outputs")
	}
	if !matches(chain, otherOut) {
		t.Error("an explicit name must match another rule's output (chaining)")
	}
}
