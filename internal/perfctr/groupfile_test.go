package perfctr

import (
	"math"
	"strings"
	"testing"

	"likwid/internal/hwdef"
	"likwid/internal/machine"
)

const sampleGroupFile = `
SHORT  Double precision MFlops/s (custom)
EVENTSET
FIXC0 INSTR_RETIRED_ANY
FIXC1 CPU_CLK_UNHALTED_CORE
PMC0  SIMD_COMP_INST_RETIRED_PACKED_DOUBLE
PMC1  SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE
METRICS
Runtime [s]  FIXC1/clock
CPI  FIXC1/FIXC0
DP MFlops/s  1.0E-06*(PMC0*2+PMC1)/time
LONG
This text documents the group and is ignored by the parser.
Formulas above reference counters, as in the original file format.
`

func TestParseGroupFile(t *testing.T) {
	a := hwdef.Core2Quad
	g, err := ParseGroupFile(a, "MY_FLOPS", sampleGroupFile)
	if err != nil {
		t.Fatal(err)
	}
	if g.Function != "Double precision MFlops/s (custom)" {
		t.Errorf("function = %q", g.Function)
	}
	if len(g.Events) != 2 {
		t.Fatalf("events = %v", g.Events)
	}
	if len(g.Metrics) != 3 {
		t.Fatalf("metrics = %d", len(g.Metrics))
	}
	// Counter names rewritten to event names.
	if g.Metrics[2].Formula != "1.0E-06*(SIMD_COMP_INST_RETIRED_PACKED_DOUBLE*2+SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE)/time" {
		t.Errorf("formula = %q", g.Metrics[2].Formula)
	}
	if g.Metrics[1].Formula != "CPU_CLK_UNHALTED_CORE/INSTR_RETIRED_ANY" {
		t.Errorf("CPI formula = %q", g.Metrics[1].Formula)
	}
}

func TestParseGroupFileErrors(t *testing.T) {
	a := hwdef.Core2Quad
	cases := map[string]string{
		"unknown event": "EVENTSET\nPMC0 NO_SUCH_EVENT\n",
		"bad eventset":  "EVENTSET\nPMC0\n",
		"counter reuse": "EVENTSET\nPMC0 L1D_REPL\nPMC0 L1D_M_EVICT\n",
		"orphan line":   "PMC0 L1D_REPL\n",
		"bad metric":    "EVENTSET\nPMC0 L1D_REPL\nMETRICS\nBandwidth\n",
		"unknown ctr":   "EVENTSET\nPMC0 L1D_REPL\nMETRICS\nX PMC5*2\n",
		"empty":         "LONG\nnothing\n",
		"bad formula":   "EVENTSET\nPMC0 L1D_REPL\nMETRICS\nX PMC0*\n",
	}
	for what, src := range cases {
		if _, err := ParseGroupFile(a, "BAD", src); err == nil {
			t.Errorf("%s: must fail", what)
		}
	}
}

// TestCustomGroupEndToEnd: a parsed group file drives a real measurement.
func TestCustomGroupEndToEnd(t *testing.T) {
	m := newMachine(t, "core2")
	g, err := ParseGroupFile(m.Arch, "MY_FLOPS", sampleGroupFile)
	if err != nil {
		t.Fatal(err)
	}
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 0); err != nil {
		t.Fatal(err)
	}
	var specs []EventSpec
	for _, ev := range g.Events {
		specs = append(specs, EventSpec{Event: ev})
	}
	col, err := NewCollector(m, []int{0}, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col.Start()
	const elems = 1e6
	m.RunPhase([]*machine.ThreadWork{{
		Task: task, Elems: elems,
		PerElem: machine.PerElem{
			Cycles: 2,
			Counts: machine.Counts{machine.EvInstr: 3, machine.EvFlopsPackedDP: 1},
			Vector: true,
		},
	}}, 0)
	col.Stop()
	r := col.Read()
	expr, err := CompileExpr(g.Metrics[2].Formula)
	if err != nil {
		t.Fatal(err)
	}
	mflops, err := expr.Eval(env(r, 0, m.Arch.ClockHz()))
	if err != nil {
		t.Fatal(err)
	}
	wantTime := 2 * elems / m.Arch.ClockHz()
	want := 1e-6 * 2 * elems / wantTime
	if math.Abs(mflops-want) > want*0.05 {
		t.Errorf("custom DP MFlops/s = %v, want ≈ %v", mflops, want)
	}
	out := Report(r, &g, m.Arch.ClockHz())
	if !strings.Contains(out, "DP MFlops/s") {
		t.Error("custom group metrics missing from report")
	}
}

func TestReplaceIdent(t *testing.T) {
	cases := []struct{ s, old, new, want string }{
		{"PMC0+PMC1", "PMC0", "EV_A", "EV_A+PMC1"},
		{"PMC0*PMC0", "PMC0", "B", "B*B"},
		{"XPMC0", "PMC0", "B", "XPMC0"}, // not a whole identifier
		{"PMC01", "PMC0", "B", "PMC01"},
	}
	for _, c := range cases {
		if got := replaceIdent(c.s, c.old, c.new); got != c.want {
			t.Errorf("replaceIdent(%q,%q,%q) = %q, want %q", c.s, c.old, c.new, got, c.want)
		}
	}
}
