package machine

import (
	"testing"

	"likwid/internal/msr"
	"likwid/internal/sched"
)

// armAll programs every core PMC with an event the streaming load drives,
// enables the fixed counters, and arms the uncore bank of every socket, so
// a phase exercises every delivery path.
func armAll(tb testing.TB, m *Machine) {
	tb.Helper()
	core := []string{"FP_COMP_OPS_EXE_SSE_FP_PACKED", "MEM_INST_RETIRED_LOADS", "MEM_INST_RETIRED_STORES", "L2_LINES_IN_ANY"}
	uncore := []string{"UNC_L3_LINES_IN_ANY", "UNC_L3_LINES_OUT_ANY", "UNC_QMC_NORMAL_READS_ANY", "UNC_QMC_WRITES_FULL_ANY"}
	for cpu := 0; cpu < m.OS.NumCPUs(); cpu++ {
		for slot, name := range core {
			armPMC(tb, m, cpu, slot, name)
		}
		dev, _ := m.MSRs.Open(cpu)
		if err := dev.Write(msr.IA32FixedCtrCtrl, 0x333); err != nil {
			tb.Fatal(err)
		}
	}
	for s := 0; s < m.Arch.Sockets; s++ {
		dev, _ := m.MSRs.Open(m.uncoreCPU[s])
		for i, name := range uncore {
			ev, err := m.Arch.EventByName(name)
			if err != nil {
				tb.Fatal(err)
			}
			if err := dev.Write(msr.UncPerfEvtSel+uint32(i), msr.EvtselEncode(ev.Code, ev.Umask)); err != nil {
				tb.Fatal(err)
			}
		}
		if err := dev.Write(msr.UncGlobalCtl, 1<<len(uncore)-1); err != nil {
			tb.Fatal(err)
		}
	}
}

// streamNode is the monitoring agent's load on a westmereEP node: two
// streaming tasks per socket, each pinned to its own hardware thread (or
// left to the scheduler), with every counter armed.
func streamNode(tb testing.TB, pinned bool) (*Machine, []*ThreadWork) {
	tb.Helper()
	m, err := NewNamed("westmereEP", Options{Policy: sched.PolicySpread, Seed: 7})
	if err != nil {
		tb.Fatal(err)
	}
	armAll(tb, m)
	pe := PerElem{
		Cycles:       1.0,
		Counts:       Counts{EvInstr: 3, EvFlopsPackedDP: 1, EvLoads: 2, EvStores: 1},
		MemReadBytes: 16, MemWriteBytes: 8, Streams: 3, Vector: true,
	}
	var works []*ThreadWork
	perSocket := map[int]int{}
	for cpu := 0; cpu < m.OS.NumCPUs(); cpu++ {
		s := m.SocketOf(cpu)
		if perSocket[s] >= 2 {
			continue
		}
		perSocket[s]++
		task := m.OS.Spawn("load", nil)
		if pinned {
			if err := m.OS.Pin(task, cpu); err != nil {
				tb.Fatal(err)
			}
		}
		works = append(works, &ThreadWork{Task: task, PerElem: pe})
	}
	return m, works
}

// streamPhase runs one agent tick's worth of the load (2e7 elements per
// task, about 100 slices) and returns the slices it took.
func streamPhase(m *Machine, works []*ThreadWork) int {
	for _, w := range works {
		w.Elems, w.Done, w.FinishTime = 2e7, 0, 0
	}
	return int(m.RunPhase(works, 0)/DefaultSlice + 0.5)
}

// TestRunPhaseAllocatesNothing pins the engine's zero-allocation slice:
// once a phase has sized the scratch, further phases allocate nothing,
// pinned (the agent's load) or migrating under the balancer.
func TestRunPhaseAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pinned bool
	}{{"pinned", true}, {"unpinned", false}} {
		t.Run(tc.name, func(t *testing.T) {
			m, works := streamNode(t, tc.pinned)
			if n := streamPhase(m, works); n < 10 {
				t.Fatalf("warm-up phase took %d slices, want a multi-slice phase", n)
			}
			if allocs := testing.AllocsPerRun(20, func() { streamPhase(m, works) }); allocs != 0 {
				t.Fatalf("RunPhase allocated %v objects per phase, want 0", allocs)
			}
		})
	}
}

// BenchmarkRunPhase times the engine under the monitoring agent's load
// (westmereEP, two pinned streaming tasks per socket, every counter
// armed): ns per engine slice, and allocations per phase, which must be 0.
// The warm-up phase before the timer sizes the scratch, so even a 1x run
// reports the steady state.
func BenchmarkRunPhase(b *testing.B) {
	m, works := streamNode(b, true)
	streamPhase(m, works)
	b.ReportAllocs()
	b.ResetTimer()
	slices := 0
	for i := 0; i < b.N; i++ {
		slices += streamPhase(m, works)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slices), "ns/slice")
}
