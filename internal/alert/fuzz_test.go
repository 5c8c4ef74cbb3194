package alert_test

import (
	"testing"

	"likwid/internal/spec/spectest"
)

// FuzzRuleSpec hammers the rule grammar with arbitrary rule files: the
// parsers must never panic, and every rule or route they accept must
// render back into a line they read into the same value
// (spectest.RoundTrip).  Its seeds are alert rules; FuzzDeriveSpec runs
// the same check from recorded rules and routes.
func FuzzRuleSpec(f *testing.F) {
	f.Add("mem_bw_low: avg(MEM_DP/bandwidth, socket, 30s) < 2.0e9 for 60s")
	f.Add("hot0: max(temp, thread, 3, 10s) >= 95 for 0s every 5s\nskew: imbalance(bw, socket, 30s) > 0.5 for 1m")
	f.Add(`q: rate("DP MFlops/s", node, 1m30s) <= 0 for 30s # comment`)
	f.Add("broken: avg(bw, node) < 1 for 0s")
	f.Add("r: avg(\"unterminated, node, 1s) < 1 for 0s")
	f.Add("r: avg(bw, node, 99999h) < 1e308 for 99999h")
	f.Add("# only a comment\n\n\n")
	f.Add("r: imbalance(bw, socket, 0, 1s) < 1 for 0s")
	f.Add("\x00\xff: avg(\x01, node, 1s) < 1 for 0s")
	f.Add("dup: avg(a, node, 1s) < 1 for 0s\ndup: avg(b, node, 1s) < 1 for 0s")
	f.Add(`j: avg(bw{job="lbm"}, node, 1s) < 1 for 0s`)
	f.Add(`j: avg(*/bw{job="lbm",cluster="em*"}, node, 1s) < 1 for 0s`)
	f.Add(`j: avg("DP MFlops/s"{job="l b m"}, node, 1s) < 1 for 0s`)
	f.Add(`bad: avg(bw{job=}, node, 1s) < 1 for 0s`)
	f.Add(`bad: avg(bw{job="a",job="b"}, node, 1s) < 1 for 0s`)
	f.Add("bad: avg(bw{}, node, 1s) < 1 for 0s")
	f.Add("o: avg(bw) over 30s > 1 for 0s")
	f.Fuzz(func(t *testing.T, src string) {
		if err := spectest.RoundTrip(src); err != nil {
			t.Fatal(err)
		}
	})
}
