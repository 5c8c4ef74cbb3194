package perfctr

import (
	"math"
	"testing"

	"likwid/internal/machine"
)

// TestCore2MEMGroupCountsBusTraffic: on parts without uncore counters the
// MEM group measures memory traffic through per-core bus events
// (BUS_TRANS_MEM_ALL).  Regression test: traffic canonical events must
// reach core-domain counters, not only the (absent) uncore block.
func TestCore2MEMGroupCountsBusTraffic(t *testing.T) {
	m := newMachine(t, "core2")
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 1); err != nil {
		t.Fatal(err)
	}
	g, err := GroupFor(m.Arch, "MEM")
	if err != nil {
		t.Fatal(err)
	}
	var specs []EventSpec
	for _, ev := range g.Events {
		specs = append(specs, EventSpec{Event: ev})
	}
	col, err := NewCollector(m, []int{0, 1}, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Start(); err != nil {
		t.Fatal(err)
	}
	const elems = 1e7
	m.RunPhase([]*machine.ThreadWork{{
		Task: task, Elems: elems,
		PerElem: machine.PerElem{
			Cycles: 1, MemReadBytes: 16, MemWriteBytes: 8,
			Streams: 3, Vector: true,
		},
	}}, 0)
	if err := col.Stop(); err != nil {
		t.Fatal(err)
	}
	r := col.Read()
	bus := r.Counts["BUS_TRANS_MEM_ALL"]
	wantLines := 24 * elems / 64
	if math.Abs(bus[1]-wantLines) > wantLines*0.01 {
		t.Fatalf("BUS_TRANS_MEM_ALL on core 1 = %v, want ≈ %v", bus[1], wantLines)
	}
	if bus[0] != 0 {
		t.Errorf("idle core 0 counted %v bus transactions", bus[0])
	}
	// The derived bandwidth metric comes out as the true traffic rate.
	expr, _ := CompileExpr(g.Metrics[2].Formula)
	env := env(r, 1, m.Arch.ClockHz())
	mbs, err := expr.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	wantMBs := 1e-6 * wantLines * 64 / env["time"]
	if math.Abs(mbs-wantMBs) > wantMBs*0.02 {
		t.Errorf("MEM bandwidth metric = %v, want ≈ %v", mbs, wantMBs)
	}
}

// TestNehalemNoDoubleCounting: on parts *with* uncore counters the same
// traffic must appear exactly once in the uncore and never inflate core
// counters (no Nehalem core event matches traffic keys).
func TestNehalemNoDoubleCounting(t *testing.T) {
	m := newMachine(t, "nehalemEP")
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 0); err != nil {
		t.Fatal(err)
	}
	specs, _ := ParseEventList("UNC_QMC_NORMAL_READS_ANY:UPMC0,L1D_REPL:PMC0")
	col, err := NewCollector(m, []int{0, 1}, specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	col.Start()
	const elems = 1e7
	m.RunPhase([]*machine.ThreadWork{{
		Task: task, Elems: elems,
		PerElem: machine.PerElem{
			Cycles: 1, MemReadBytes: 16,
			Counts:  machine.Counts{machine.EvL1LinesIn: 0.25},
			Streams: 3, Vector: true,
		},
	}}, 0)
	col.Stop()
	r := col.Read()
	reads := r.Counts["UNC_QMC_NORMAL_READS_ANY"]
	wantLines := 16 * elems / 64
	if math.Abs(reads[0]-wantLines) > wantLines*0.01 {
		t.Errorf("uncore reads = %v, want %v (exactly once)", reads[0], wantLines)
	}
	l1 := r.Counts["L1D_REPL"]
	if math.Abs(l1[0]-elems*0.25) > elems*0.25*0.01 {
		t.Errorf("L1D_REPL = %v, want %v (untouched by traffic routing)", l1[0], elems*0.25)
	}
}
