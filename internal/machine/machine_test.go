package machine

import (
	"math"
	"testing"

	"likwid/internal/hwdef"
	"likwid/internal/msr"
	"likwid/internal/sched"
)

func newWestmere(t *testing.T) *Machine {
	t.Helper()
	m, err := NewNamed("westmereEP", Options{Policy: sched.PolicySpread, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// armPMC programs PMC slot on a cpu for the named event and enables it.
func armPMC(t testing.TB, m *Machine, cpu, slot int, event string) {
	t.Helper()
	ev, err := m.Arch.EventByName(event)
	if err != nil {
		t.Fatal(err)
	}
	dev, _ := m.MSRs.Open(cpu)
	base := uint32(msr.IA32PerfEvtSel0)
	if m.Arch.Vendor == hwdef.AMD {
		base = msr.AMDPerfEvtSel0
	}
	if err := dev.Write(base+uint32(slot), msr.EvtselEncode(ev.Code, ev.Umask)); err != nil {
		t.Fatal(err)
	}
	if m.Arch.Vendor == hwdef.Intel {
		ctl, _ := dev.Read(msr.IA32PerfGlobalCtl)
		dev.Write(msr.IA32PerfGlobalCtl, ctl|1<<uint(slot)|0x7<<32)
	}
}

func readPMC(t *testing.T, m *Machine, cpu, slot int) uint64 {
	t.Helper()
	dev, _ := m.MSRs.Open(cpu)
	base := uint32(msr.IA32PMC0)
	if m.Arch.Vendor == hwdef.AMD {
		base = msr.AMDPMC0
	}
	v, err := dev.Read(base + uint32(slot))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestInjectRoutesToArmedCounter(t *testing.T) {
	m := newWestmere(t)
	armPMC(t, m, 3, 0, "FP_COMP_OPS_EXE_SSE_FP_PACKED")
	if err := m.Inject(3, &Counts{EvFlopsPackedDP: 1000}); err != nil {
		t.Fatal(err)
	}
	if got := readPMC(t, m, 3, 0); got != 1000 {
		t.Fatalf("PMC0 = %d, want 1000", got)
	}
	// Unarmed cpu stays silent.
	if got := readPMC(t, m, 4, 0); got != 0 {
		t.Fatalf("cpu 4 PMC0 = %d, want 0", got)
	}
}

func TestInjectIgnoresDisabledCounter(t *testing.T) {
	m := newWestmere(t)
	ev, _ := m.Arch.EventByName("FP_COMP_OPS_EXE_SSE_FP_PACKED")
	dev, _ := m.MSRs.Open(0)
	// Evtsel programmed but enable bit clear, global ctrl off.
	dev.Write(msr.IA32PerfEvtSel0, msr.EvtselEncode(ev.Code, ev.Umask)&^msr.EvtselEnable)
	m.Inject(0, &Counts{EvFlopsPackedDP: 500})
	if got := readPMC(t, m, 0, 0); got != 0 {
		t.Fatalf("disabled counter counted %d events", got)
	}
}

func TestFixedCountersViaCtrl(t *testing.T) {
	m := newWestmere(t)
	dev, _ := m.MSRs.Open(0)
	dev.Write(msr.IA32FixedCtrCtrl, 0x33)             // enable fixed 0 and 1
	dev.Write(msr.IA32PerfGlobalCtl, uint64(0x7)<<32) // global fixed enables
	m.Inject(0, &Counts{EvInstr: 777, EvCycles: 999})
	if v, _ := dev.Read(msr.IA32FixedCtr0); v != 777 {
		t.Errorf("FIXED_CTR0 = %d, want 777", v)
	}
	if v, _ := dev.Read(msr.IA32FixedCtr0 + 1); v != 999 {
		t.Errorf("FIXED_CTR1 = %d, want 999", v)
	}
	// Fixed 2 was not enabled in the ctrl register.
	if v, _ := dev.Read(msr.IA32FixedCtr0 + 2); v != 0 {
		t.Errorf("FIXED_CTR2 = %d, want 0", v)
	}
}

func TestSocketScopeDelivery(t *testing.T) {
	m := newWestmere(t)
	ev, _ := m.Arch.EventByName("UNC_L3_LINES_IN_ANY")
	dev, _ := m.MSRs.Open(0) // any core of socket 0 sees the bank
	dev.Write(msr.UncPerfEvtSel, msr.EvtselEncode(ev.Code, ev.Umask))
	dev.Write(msr.UncGlobalCtl, 1)
	// Inject via a *different* core of socket 0: cpu 13 (SMT of core 1).
	m.Inject(13, &Counts{EvL3LinesIn: 4242})
	v, _ := dev.Read(msr.UncPMC)
	if v != 4242 {
		t.Fatalf("uncore PMC = %d, want 4242", v)
	}
	// Socket 1's bank must be untouched.
	dev6, _ := m.MSRs.Open(6)
	if v, _ := dev6.Read(msr.UncPMC); v != 0 {
		t.Fatalf("socket 1 uncore PMC = %d, want 0", v)
	}
}

func TestAMDCounters(t *testing.T) {
	m, err := NewNamed("istanbul", Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	armPMC(t, m, 0, 2, "RETIRED_SSE_OPERATIONS_PACKED_DOUBLE")
	m.Inject(0, &Counts{EvFlopsPackedDP: 100})
	// K10 counts FLOPs: 2 per packed DP instruction.
	if got := readPMC(t, m, 0, 2); got != 200 {
		t.Fatalf("K10 packed-double counter = %d, want 200 (2 flops/instr)", got)
	}
}

func TestRunPhaseComputeBound(t *testing.T) {
	m := newWestmere(t)
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 0); err != nil {
		t.Fatal(err)
	}
	// 1e8 elements at 2 cycles each on a 2.93 GHz core: ~68 ms.
	w := &ThreadWork{
		Task: task, Elems: 1e8,
		PerElem: PerElem{Cycles: 2, Counts: Counts{EvInstr: 4}, Vector: true},
	}
	elapsed := m.RunPhase([]*ThreadWork{w}, 0)
	want := 2 * 1e8 / m.Arch.ClockHz()
	if math.Abs(elapsed-want) > want*0.05 {
		t.Fatalf("elapsed = %v, want ≈ %v (compute bound)", elapsed, want)
	}
	if w.FinishTime <= 0 {
		t.Error("finish time not recorded")
	}
}

func TestRunPhaseMemoryBound(t *testing.T) {
	m := newWestmere(t)
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 0); err != nil {
		t.Fatal(err)
	}
	// Memory-dominated: 24 bytes/elem, trivial core cost.  One vector
	// core is limited by CoreTriadBW.
	w := &ThreadWork{
		Task: task, Elems: 1e8,
		PerElem: PerElem{Cycles: 0.5, MemReadBytes: 16, MemWriteBytes: 8, Streams: 3, Vector: true},
	}
	elapsed := m.RunPhase([]*ThreadWork{w}, 0)
	bw := 24 * 1e8 / elapsed
	want := m.Arch.Perf.CoreTriadBW
	if math.Abs(bw-want) > want*0.05 {
		t.Fatalf("single-core bandwidth = %v, want ≈ %v", bw, want)
	}
}

func TestRunPhaseSocketSaturation(t *testing.T) {
	m := newWestmere(t)
	var works []*ThreadWork
	for i := 0; i < 6; i++ {
		task := m.OS.Spawn("w", nil)
		if err := m.OS.Pin(task, i); err != nil { // all six cores of socket 0
			t.Fatal(err)
		}
		works = append(works, &ThreadWork{
			Task: task, Elems: 1e8,
			PerElem: PerElem{Cycles: 0.5, MemReadBytes: 16, MemWriteBytes: 8, Streams: 3, Vector: true},
		})
	}
	elapsed := m.RunPhase(works, 0)
	bw := 6 * 24 * 1e8 / elapsed
	want := m.Arch.Perf.SocketMemBW
	if math.Abs(bw-want) > want*0.08 {
		t.Fatalf("socket bandwidth = %v, want ≈ %v (saturation)", bw, want)
	}
}

func TestRunPhaseTwoSocketsScale(t *testing.T) {
	m := newWestmere(t)
	mk := func(cpu int) *ThreadWork {
		task := m.OS.Spawn("w", nil)
		if err := m.OS.Pin(task, cpu); err != nil {
			t.Fatal(err)
		}
		return &ThreadWork{
			Task: task, Elems: 5e7,
			PerElem: PerElem{Cycles: 0.5, MemReadBytes: 16, MemWriteBytes: 8, Streams: 3, Vector: true},
		}
	}
	// Three cores per socket saturate both controllers.
	var works []*ThreadWork
	for _, cpu := range []int{0, 1, 2, 6, 7, 8} {
		works = append(works, mk(cpu))
	}
	elapsed := m.RunPhase(works, 0)
	bw := 6 * 24 * 5e7 / elapsed
	want := 2 * m.Arch.Perf.SocketMemBW
	if math.Abs(bw-want) > want*0.08 {
		t.Fatalf("node bandwidth = %v, want ≈ %v (both sockets)", bw, want)
	}
}

func TestRunPhaseSingleStreamCap(t *testing.T) {
	m, err := NewNamed("nehalemEP", Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 0); err != nil {
		t.Fatal(err)
	}
	w := &ThreadWork{
		Task: task, Elems: 1e8,
		PerElem: PerElem{Cycles: 0.5, MemReadBytes: 5.3, Streams: 1, Vector: true},
	}
	elapsed := m.RunPhase([]*ThreadWork{w}, 0)
	bw := 5.3 * 1e8 / elapsed
	want := m.Arch.Perf.SingleStreamBW
	if math.Abs(bw-want) > want*0.05 {
		t.Fatalf("single-stream bandwidth = %v, want ≈ %v", bw, want)
	}
}

func TestRunPhaseCountsEventsEndToEnd(t *testing.T) {
	m := newWestmere(t)
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 2); err != nil {
		t.Fatal(err)
	}
	armPMC(t, m, 2, 0, "FP_COMP_OPS_EXE_SSE_FP_PACKED")
	dev, _ := m.MSRs.Open(2)
	dev.Write(msr.IA32FixedCtrCtrl, 0x333)
	ctl, _ := dev.Read(msr.IA32PerfGlobalCtl)
	dev.Write(msr.IA32PerfGlobalCtl, ctl|0x7<<32)

	const elems = 1e7
	w := &ThreadWork{
		Task: task, Elems: elems,
		PerElem: PerElem{
			Cycles: 2,
			Counts: Counts{EvInstr: 3, EvFlopsPackedDP: 1},
			Vector: true,
		},
	}
	m.RunPhase([]*ThreadWork{w}, 0)
	if got := readPMC(t, m, 2, 0); math.Abs(float64(got)-elems) > 1 {
		t.Errorf("packed-DP count = %d, want %v", got, elems)
	}
	instr, _ := dev.Read(msr.IA32FixedCtr0)
	if math.Abs(float64(instr)-3*elems) > 1 {
		t.Errorf("INSTR_RETIRED = %d, want %v", instr, 3*elems)
	}
	cycles, _ := dev.Read(msr.IA32FixedCtr0 + 1)
	// CPI = cycles/instr should be ≈ 2/3.
	cpi := float64(cycles) / float64(instr)
	if math.Abs(cpi-2.0/3) > 0.05 {
		t.Errorf("CPI = %v, want ≈ 0.667", cpi)
	}
}

func TestFractionalResidualsAreExact(t *testing.T) {
	m := newWestmere(t)
	armPMC(t, m, 0, 0, "FP_COMP_OPS_EXE_SSE_FP_SCALAR")
	// Deliver 0.25 events 1000 times: the counter must end at exactly 250
	// (0.25 is binary-exact, so no float drift can excuse a loss).
	for i := 0; i < 1000; i++ {
		m.Inject(0, &Counts{EvFlopsScalarDP: 0.25})
	}
	got := readPMC(t, m, 0, 0)
	if got != 250 {
		t.Fatalf("residual accumulation lost counts: %d, want 250", got)
	}
}

func TestRunIdleFiresHooksAndAdvancesClock(t *testing.T) {
	m := newWestmere(t)
	var fired int
	m.AddSliceHook(func(now float64) { fired++ })
	m.RunIdle(0.01, 0.001)
	if fired != 10 {
		t.Errorf("hook fired %d times, want 10", fired)
	}
	if math.Abs(m.Now()-0.01) > 1e-9 {
		t.Errorf("clock = %v, want 0.01", m.Now())
	}
}
