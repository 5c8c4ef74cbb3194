package derive_test

import (
	"testing"

	"likwid/internal/spec/spectest"
)

// FuzzDeriveSpec is FuzzRuleSpec (internal/alert) seeded from recorded
// rules and routes: the same spectest.RoundTrip check over both rule
// kinds, from the other half of the grammar.
func FuzzDeriveSpec(f *testing.F) {
	seeds := []string{
		`cluster_flops = sum(flops_dp{cluster="emmy"}) by (source) over 30s every 10s`,
		`fleet_bw = avg(memory_bandwidth_mbytes_s, socket) over 1m`,
		`job_nodes = count(*/dp_mflops_s) by (job, partition) over 30s`,
		`ramp = rate("DP MFlops/s") over 1m30s`,
		`floor = min(node*/bw) over 10s` + "\nceil = max(node*/bw) over 10s",
		"# comment\n\nroute drop */cpu_temp*",
		`route rename */DP_MFLOPS -> flops_dp`,
		`route relabel node*/flops_dp{job="lbm"} set cluster="emmy", rack=""`,
		`x = sum(bw) over 30s nonsense`,
		`route rename bw -> "alert/x"`,
		"x = sum(bw) over 30s\nx = avg(bw) over 30s",
		`x = sum(bw{a="*"}) over 0s`,
		"w = sum(bw, socket, 30s)",
		"t = sum(bw, 30s) over 30s",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := spectest.RoundTrip(src); err != nil {
			t.Fatal(err)
		}
	})
}
