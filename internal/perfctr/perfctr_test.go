package perfctr

import (
	"math"
	"strings"
	"testing"

	"likwid/internal/hwdef"
	"likwid/internal/machine"
	"likwid/internal/sched"
)

func newMachine(t *testing.T, arch string) *machine.Machine {
	t.Helper()
	m, err := machine.NewNamed(arch, machine.Options{Policy: sched.PolicySpread, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseEventList(t *testing.T) {
	specs, err := ParseEventList("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE:PMC0,SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE:PMC1")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Counter != "PMC0" || specs[1].Event != "SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE" {
		t.Fatalf("specs = %+v", specs)
	}
	if _, err := ParseEventList(""); err == nil {
		t.Error("empty list must fail")
	}
	specs, err = ParseEventList("L1D_REPL")
	if err != nil || specs[0].Counter != "" {
		t.Fatalf("bare event failed: %+v, %v", specs, err)
	}
}

func TestCollectorWrapperMode(t *testing.T) {
	m := newMachine(t, "westmereEP")
	task := m.OS.Spawn("a.out", nil)
	if err := m.OS.Pin(task, 1); err != nil {
		t.Fatal(err)
	}

	specs, _ := ParseEventList("FP_COMP_OPS_EXE_SSE_FP_PACKED:PMC0,FP_COMP_OPS_EXE_SSE_FP_SCALAR:PMC1")
	col, err := NewCollector(m, []int{0, 1, 2, 3}, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	const elems = 2e7
	m.RunPhase([]*machine.ThreadWork{{
		Task: task, Elems: elems,
		PerElem: machine.PerElem{
			Cycles: 2,
			Counts: machine.Counts{machine.EvInstr: 3, machine.EvFlopsPackedDP: 1},
			Vector: true,
		},
	}}, 0)
	if err := col.Stop(); err != nil {
		t.Fatal(err)
	}
	r := col.Read()

	// Events measured on core 1 (column 1), nothing on the others.
	packed := r.Counts["FP_COMP_OPS_EXE_SSE_FP_PACKED"]
	if math.Abs(packed[1]-elems) > 1 {
		t.Errorf("packed on core 1 = %v, want %v", packed[1], elems)
	}
	for _, colIdx := range []int{0, 2, 3} {
		if packed[colIdx] != 0 {
			t.Errorf("packed on column %d = %v, want 0", colIdx, packed[colIdx])
		}
	}
	// Fixed events counted implicitly.
	instr := r.Counts["INSTR_RETIRED_ANY"]
	if math.Abs(instr[1]-3*elems) > 1 {
		t.Errorf("INSTR_RETIRED_ANY = %v, want %v", instr[1], 3*elems)
	}
	// Derived metric environment: DP MFlops/s = 2*packed/time/1e6.
	env := env(r, 1, m.Arch.ClockHz())
	if env["time"] <= 0 {
		t.Fatal("time must be positive on the measured core")
	}
	g, err := GroupFor(m.Arch, "FLOPS_DP")
	if err != nil {
		t.Fatal(err)
	}
	expr, _ := CompileExpr(g.Metrics[2].Formula)
	mflops, err := expr.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	// Expected: elems packed instr * 2 flops over ~elems*2/clock seconds.
	wantTime := 2 * elems / m.Arch.ClockHz()
	want := 1e-6 * 2 * elems / wantTime
	if math.Abs(mflops-want) > want*0.05 {
		t.Errorf("DP MFlops/s = %v, want ≈ %v", mflops, want)
	}
}

func TestCollectorRejectsOverflowWithoutMultiplex(t *testing.T) {
	m := newMachine(t, "core2") // only 2 PMCs
	specs, _ := ParseEventList("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE,SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE,L1D_REPL")
	if _, err := NewCollector(m, []int{0}, specs, Options{}); err == nil {
		t.Fatal("3 PMC events on 2 counters must fail without multiplexing")
	}
	if _, err := NewCollector(m, []int{0}, specs, Options{Multiplex: true}); err != nil {
		t.Fatalf("multiplex mode must accept: %v", err)
	}
}

func TestCollectorCounterConstraints(t *testing.T) {
	m := newMachine(t, "westmereEP")
	// A core event cannot be pinned to an uncore counter.
	specs := []EventSpec{{Event: "L1D_REPL", Counter: "UPMC0"}}
	if _, err := NewCollector(m, []int{0}, specs, Options{}); err == nil {
		t.Error("domain mismatch must fail")
	}
	if _, err := NewCollector(m, []int{0}, []EventSpec{{Event: "NO_SUCH_EVENT"}}, Options{}); err == nil {
		t.Error("unknown event must fail")
	}
	if _, err := NewCollector(m, []int{99}, nil, Options{}); err == nil {
		t.Error("nonexistent cpu must fail")
	}
	if _, err := NewCollector(m, []int{0, 0}, nil, Options{}); err == nil {
		t.Error("duplicate cpu must fail")
	}
}

func TestUncoreSocketLock(t *testing.T) {
	m := newMachine(t, "nehalemEP")
	// Work on two cores of socket 0, measuring an uncore event on all
	// four cores of the socket.
	var works []*machine.ThreadWork
	for _, cpu := range []int{0, 1} {
		task := m.OS.Spawn("w", nil)
		if err := m.OS.Pin(task, cpu); err != nil {
			t.Fatal(err)
		}
		works = append(works, &machine.ThreadWork{
			Task: task, Elems: 1e7,
			PerElem: machine.PerElem{
				Cycles: 1, MemReadBytes: 16, MemWriteBytes: 8,
				Streams: 3, Vector: true,
			},
		})
	}
	specs, _ := ParseEventList("UNC_L3_LINES_IN_ANY:UPMC0,UNC_L3_LINES_OUT_ANY:UPMC1")
	col, err := NewCollector(m, []int{0, 1, 2, 3}, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	m.RunPhase(works, 0)
	if err := col.Stop(); err != nil {
		t.Fatal(err)
	}
	r := col.Read()
	in := r.Counts["UNC_L3_LINES_IN_ANY"]
	// Socket lock: only column 0 (leader of socket 0) carries counts.
	wantLines := 16.0 * 2e7 / 64
	if math.Abs(in[0]-wantLines) > wantLines*0.01 {
		t.Errorf("leader lines-in = %v, want ≈ %v", in[0], wantLines)
	}
	for i := 1; i < 4; i++ {
		if in[i] != 0 {
			t.Errorf("non-leader column %d has uncore count %v (double counting!)", i, in[i])
		}
	}
	// The sum over all columns must equal the true socket count exactly
	// once — the invariant socket locks exist to protect.
	var sum float64
	for _, v := range in {
		sum += v
	}
	if math.Abs(sum-wantLines) > wantLines*0.01 {
		t.Errorf("total lines-in = %v, want %v (counted once)", sum, wantLines)
	}
}

func TestMultiplexExtrapolation(t *testing.T) {
	m := newMachine(t, "core2") // 2 PMCs force multiplexing for 4 events
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 0); err != nil {
		t.Fatal(err)
	}
	specs, _ := ParseEventList("SIMD_COMP_INST_RETIRED_PACKED_DOUBLE,SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE,L1D_REPL,L2_LINES_IN_ANY")
	col, err := NewCollector(m, []int{0}, specs, Options{Multiplex: true, MuxInterval: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	if col.NumSets() != 2 {
		t.Fatalf("sets = %d, want 2", col.NumSets())
	}
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	const elems = 4e7 // long run so extrapolation converges
	m.RunPhase([]*machine.ThreadWork{{
		Task: task, Elems: elems,
		PerElem: machine.PerElem{
			Cycles: 2,
			Counts: machine.Counts{
				machine.EvInstr:         3,
				machine.EvFlopsPackedDP: 1,
				machine.EvL1LinesIn:     0.125,
			},
			Vector: true,
		},
	}}, 0)
	if err := col.Stop(); err != nil {
		t.Fatal(err)
	}
	r := col.Read()
	if !r.Scaled {
		t.Error("results must be flagged as multiplex-scaled")
	}
	packed := r.Counts["SIMD_COMP_INST_RETIRED_PACKED_DOUBLE"][0]
	if math.Abs(packed-elems) > elems*0.10 {
		t.Errorf("extrapolated packed count = %v, want %v ± 10%%", packed, elems)
	}
	l1 := r.Counts["L1D_REPL"][0]
	if math.Abs(l1-elems*0.125) > elems*0.125*0.10 {
		t.Errorf("extrapolated L1D_REPL = %v, want %v ± 10%%", l1, elems*0.125)
	}
	// Fixed events are never scaled and must be exact.
	if instr := r.Counts["INSTR_RETIRED_ANY"][0]; math.Abs(instr-3*elems) > 1 {
		t.Errorf("INSTR_RETIRED_ANY = %v, want exactly %v", instr, 3*elems)
	}
}

func TestAMDMandatoryEventsOccupyPMCs(t *testing.T) {
	m := newMachine(t, "istanbul")
	specs, _ := ParseEventList("RETIRED_SSE_OPERATIONS_PACKED_DOUBLE,RETIRED_SSE_OPERATIONS_SCALAR_DOUBLE")
	col, err := NewCollector(m, []int{0}, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 2 mandatory + 2 requested = exactly the 4 K10 counters, one set.
	if col.NumSets() != 1 {
		t.Fatalf("sets = %d, want 1", col.NumSets())
	}
	// One more PMC event must overflow.
	specs3, _ := ParseEventList("RETIRED_SSE_OPERATIONS_PACKED_DOUBLE,RETIRED_SSE_OPERATIONS_SCALAR_DOUBLE,DATA_CACHE_REFILLS_ALL")
	if _, err := NewCollector(m, []int{0}, specs3, Options{}); err == nil {
		t.Error("5 events on 4 AMD counters must fail without multiplexing")
	}
}

func TestGroupAvailabilityMatrix(t *testing.T) {
	// The 11 groups of the paper, with per-arch availability following
	// native event support.
	all := []string{"FLOPS_DP", "FLOPS_SP", "L2", "L3", "MEM", "CACHE", "L2CACHE", "L3CACHE", "DATA", "BRANCH", "TLB"}
	wantAvailable := map[string][]string{
		"westmereEP": all,
		"nehalemEP":  all,
		"core2":      {"FLOPS_DP", "FLOPS_SP", "L2", "L3", "MEM", "CACHE", "L2CACHE", "DATA", "BRANCH", "TLB"},
		"istanbul":   all,
		"k8":         {"FLOPS_DP", "FLOPS_SP", "L2", "L3", "CACHE", "L2CACHE", "DATA", "BRANCH", "TLB"},
		"pentiumM":   {"FLOPS_DP", "FLOPS_SP", "MEM", "BRANCH", "TLB"},
	}
	for archName, want := range wantAvailable {
		a, err := hwdef.Lookup(archName)
		if err != nil {
			t.Fatal(err)
		}
		got := GroupNames(a)
		gotSet := map[string]bool{}
		for _, g := range got {
			gotSet[g] = true
		}
		for _, g := range want {
			if !gotSet[g] {
				t.Errorf("%s: group %s missing (got %v)", archName, g, got)
			}
		}
	}
	// L3CACHE must not resolve on Core 2 (no L3, no uncore).
	a, _ := hwdef.Lookup("core2")
	if _, err := GroupFor(a, "L3CACHE"); err == nil {
		t.Error("L3CACHE on core2 must fail")
	}
}

func TestAllGroupsCompileAndResolve(t *testing.T) {
	for _, archName := range hwdef.Names() {
		a, _ := hwdef.Lookup(archName)
		for _, gName := range GroupNames(a) {
			g, err := GroupFor(a, gName)
			if err != nil {
				t.Errorf("%s/%s: %v", archName, gName, err)
				continue
			}
			for _, mtr := range g.Metrics {
				expr, err := CompileExpr(mtr.Formula)
				if err != nil {
					t.Errorf("%s/%s/%s: %v", archName, gName, mtr.Name, err)
					continue
				}
				// Every referenced variable must be an event of the
				// group, a mandatory event, or a pseudo-variable.
				valid := map[string]bool{"time": true, "clock": true,
					"INSTR_RETIRED_ANY": true, "CPU_CLK_UNHALTED_CORE": true}
				for _, ev := range g.Events {
					valid[ev] = true
				}
				for _, v := range expr.Vars() {
					if !valid[v] {
						t.Errorf("%s/%s/%s references %q which is not measured", archName, gName, mtr.Name, v)
					}
				}
			}
		}
	}
}

func TestReportRendering(t *testing.T) {
	m := newMachine(t, "core2")
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 0); err != nil {
		t.Fatal(err)
	}
	g, err := GroupFor(m.Arch, "FLOPS_DP")
	if err != nil {
		t.Fatal(err)
	}
	var specs []EventSpec
	for _, ev := range g.Events {
		specs = append(specs, EventSpec{Event: ev})
	}
	col, err := NewCollector(m, []int{0, 1, 2, 3}, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col.Start()
	m.RunPhase([]*machine.ThreadWork{{
		Task: task, Elems: 1e6,
		PerElem: machine.PerElem{Cycles: 2, Counts: machine.Counts{machine.EvInstr: 3, machine.EvFlopsPackedDP: 1}, Vector: true},
	}}, 0)
	col.Stop()
	out := Header(m.Arch.ModelName, m.Arch.ClockMHz) + Report(col.Read(), &g, m.Arch.ClockHz())
	for _, want := range []string{
		"CPU type:\tIntel Core 2 45nm processor",
		"CPU clock:\t2.83 GHz",
		"| Event",
		"| core 0 | core 1 | core 2 | core 3 |",
		"INSTR_RETIRED_ANY",
		"SIMD_COMP_INST_RETIRED_PACKED_DOUBLE",
		"| Metric",
		"Runtime [s]",
		"CPI",
		"DP MFlops/s",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q\n%s", want, out)
		}
	}
}

func TestExprEngine(t *testing.T) {
	cases := []struct {
		src  string
		env  map[string]float64
		want float64
	}{
		{"1+2*3", nil, 7},
		{"(1+2)*3", nil, 9},
		{"-4+6", nil, 2},
		{"1.0E-06*2000000", nil, 2},
		{"A/B", map[string]float64{"A": 10, "B": 4}, 2.5},
		{"A/B", map[string]float64{"A": 10, "B": 0}, 0}, // div by zero -> 0
		{"1.0E-06*(X*2+Y)/time", map[string]float64{"X": 3e6, "Y": 1e6, "time": 2}, 3.5},
	}
	for _, c := range cases {
		expr, err := CompileExpr(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		got, err := expr.Eval(c.env)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%q = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	for _, src := range []string{"", "1+", "(1", "1)", "a b", "1..2", "$x"} {
		if _, err := CompileExpr(src); err == nil {
			t.Errorf("CompileExpr(%q) must fail", src)
		}
	}
	expr, _ := CompileExpr("UNKNOWN_EVENT+1")
	if _, err := expr.Eval(map[string]float64{}); err == nil {
		t.Error("evaluating unknown variable must fail")
	}
}

func TestExprVars(t *testing.T) {
	expr, err := CompileExpr("1.0E-06*(FP_A*2+FP_B)/time")
	if err != nil {
		t.Fatal(err)
	}
	vars := expr.Vars()
	want := map[string]bool{"FP_A": true, "FP_B": true, "time": true}
	if len(vars) != len(want) {
		t.Fatalf("vars = %v", vars)
	}
	for _, v := range vars {
		if !want[v] {
			t.Errorf("unexpected var %q", v)
		}
	}
}
