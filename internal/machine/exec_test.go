package machine

import (
	"math"
	"testing"

	"likwid/internal/msr"
	"likwid/internal/sched"
)

func streamlike() PerElem {
	return PerElem{Cycles: 0.95, MemReadBytes: 16, MemWriteBytes: 8, Streams: 3, Vector: true}
}

func TestOversubscriptionSlowsTasks(t *testing.T) {
	// Two compute-bound tasks timesharing one hardware thread take more
	// than twice as long as one (context-switch penalty).
	run := func(nTasks int) float64 {
		m := newWestmere(t)
		var works []*ThreadWork
		for i := 0; i < nTasks; i++ {
			task := m.OS.Spawn("w", nil)
			if err := m.OS.Pin(task, 0); err != nil {
				t.Fatal(err)
			}
			works = append(works, &ThreadWork{
				Task: task, Elems: 1e7, PerElem: PerElem{Cycles: 2, Vector: true},
			})
		}
		return m.RunPhase(works, 0)
	}
	one, two := run(1), run(2)
	if two < one*2 {
		t.Errorf("2 tasks on one cpu took %v vs %v for one; timesharing missing", two, one)
	}
	if two < one*2.05 {
		t.Errorf("no oversubscription penalty visible: %v vs %v", two, one)
	}
}

func TestSMTSiblingsShareCore(t *testing.T) {
	// Two vector tasks on SMT siblings of one core gain only the SMT
	// factor, not 2x.
	m := newWestmere(t)
	mk := func(cpu int) *ThreadWork {
		task := m.OS.Spawn("w", nil)
		if err := m.OS.Pin(task, cpu); err != nil {
			t.Fatal(err)
		}
		return &ThreadWork{Task: task, Elems: 1e7, PerElem: PerElem{Cycles: 2, Vector: true}}
	}
	// cpu 0 and its sibling cpu 12.
	works := []*ThreadWork{mk(0), mk(12)}
	elapsed := m.RunPhase(works, 0)
	single := 2 * 1e7 / m.Arch.ClockHz()
	wantBoth := 2 * single / m.Arch.Perf.SMTVectorGain
	if math.Abs(elapsed-wantBoth) > wantBoth*0.05 {
		t.Errorf("SMT pair elapsed %v, want ≈ %v (gain %v)", elapsed, wantBoth, m.Arch.Perf.SMTVectorGain)
	}
}

func TestRemoteMemoryPenaltyEndToEnd(t *testing.T) {
	run := func(remote float64) float64 {
		m := newWestmere(t)
		task := m.OS.Spawn("w", nil)
		if err := m.OS.Pin(task, 0); err != nil {
			t.Fatal(err)
		}
		pe := streamlike()
		pe.RemoteFraction = remote
		w := &ThreadWork{Task: task, Elems: 5e7, PerElem: pe}
		elapsed := m.RunPhase([]*ThreadWork{w}, 0)
		return 24 * 5e7 / elapsed
	}
	local, remote := run(0), run(1)
	if remote >= local {
		t.Fatalf("all-remote bandwidth %v >= local %v", remote, local)
	}
	want := local * m0RemoteFactor(t)
	if math.Abs(remote-want) > want*0.10 {
		t.Errorf("remote bandwidth %v, want ≈ %v", remote, want)
	}
}

func m0RemoteFactor(t *testing.T) float64 {
	t.Helper()
	m := newWestmere(t)
	return m.Arch.Perf.RemoteFactor
}

func TestExplicitMemBWCap(t *testing.T) {
	m := newWestmere(t)
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 0); err != nil {
		t.Fatal(err)
	}
	pe := streamlike()
	pe.MemBWCap = 2e9
	w := &ThreadWork{Task: task, Elems: 2e7, PerElem: pe}
	elapsed := m.RunPhase([]*ThreadWork{w}, 0)
	bw := 24 * 2e7 / elapsed
	if math.Abs(bw-2e9) > 2e9*0.05 {
		t.Errorf("capped bandwidth = %v, want 2e9", bw)
	}
}

func TestL3BandwidthBound(t *testing.T) {
	// A task with pure L3 traffic is bound by the socket L3 bandwidth.
	m := newWestmere(t)
	var works []*ThreadWork
	for cpu := 0; cpu < 4; cpu++ {
		task := m.OS.Spawn("w", nil)
		if err := m.OS.Pin(task, cpu); err != nil {
			t.Fatal(err)
		}
		works = append(works, &ThreadWork{
			Task: task, Elems: 1e8,
			PerElem: PerElem{Cycles: 0.1, L3Bytes: 24, Vector: true},
		})
	}
	elapsed := m.RunPhase(works, 0)
	l3bw := 4 * 24 * 1e8 / elapsed
	want := m.Arch.Perf.L3BW
	if math.Abs(l3bw-want) > want*0.06 {
		t.Errorf("aggregate L3 bandwidth = %v, want ≈ %v", l3bw, want)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() float64 {
		m, err := NewNamed("westmereEP", Options{Policy: sched.PolicySpread, Seed: 1234})
		if err != nil {
			t.Fatal(err)
		}
		master := m.OS.Spawn("master", nil)
		team, err := sched.SpawnTeam(m.OS, sched.RuntimeIntelOMP, 6, master, nil)
		if err != nil {
			t.Fatal(err)
		}
		var works []*ThreadWork
		for _, w := range team.Workers {
			works = append(works, &ThreadWork{Task: w, Elems: 2e6, PerElem: streamlike()})
		}
		return m.RunPhase(works, 0)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed, different elapsed: %v vs %v", a, b)
	}
}

// TestSameSeedSamePlacementsAndCounts: two machines built with one seed
// and driven alike (an unpinned team, counters armed everywhere, a task
// exiting between phases) agree on every task's placement and on every
// counter register after every phase.  The balancer draws its random
// numbers per task in ID order; any other order would break this.
func TestSameSeedSamePlacementsAndCounts(t *testing.T) {
	type node struct {
		m     *Machine
		works []*ThreadWork
	}
	build := func() node {
		m, err := NewNamed("westmereEP", Options{Policy: sched.PolicySpread, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		armAll(t, m)
		master := m.OS.Spawn("master", nil)
		team, err := sched.SpawnTeam(m.OS, sched.RuntimeIntelOMP, 8, master, nil)
		if err != nil {
			t.Fatal(err)
		}
		var works []*ThreadWork
		for _, w := range team.Workers {
			works = append(works, &ThreadWork{Task: w, PerElem: streamlike()})
		}
		return node{m, works}
	}
	a, b := build(), build()
	moved := false
	for phase := 0; phase < 6; phase++ {
		if phase == 3 {
			// Exit from the middle of the ID order.
			a.m.OS.Exit(a.works[2].Task)
			b.m.OS.Exit(b.works[2].Task)
			a.works = append(a.works[:2], a.works[3:]...)
			b.works = append(b.works[:2], b.works[3:]...)
		}
		before := make([]int, len(a.works))
		for i, w := range a.works {
			before[i] = w.Task.CPU
		}
		for _, n := range []node{a, b} {
			for _, w := range n.works {
				w.Elems, w.Done, w.FinishTime = 1e6, 0, 0
			}
			n.m.RunPhase(n.works, 0)
		}
		for i := range a.works {
			if a.works[i].Task.CPU != b.works[i].Task.CPU {
				t.Fatalf("phase %d: task %d on cpu %d vs %d", phase, a.works[i].Task.ID, a.works[i].Task.CPU, b.works[i].Task.CPU)
			}
			moved = moved || a.works[i].Task.CPU != before[i]
		}
		for cpu := 0; cpu < a.m.OS.NumCPUs(); cpu++ {
			da, _ := a.m.MSRs.Open(cpu)
			db, _ := b.m.MSRs.Open(cpu)
			regs := []uint32{msr.IA32FixedCtr0, msr.IA32FixedCtr0 + 1, msr.IA32FixedCtr0 + 2, msr.UncPMC, msr.UncPMC + 1, msr.UncPMC + 2, msr.UncPMC + 3}
			for i := 0; i < a.m.Arch.NumPMC; i++ {
				regs = append(regs, msr.IA32PMC0+uint32(i))
			}
			for _, reg := range regs {
				va, _ := da.Read(reg)
				vb, _ := db.Read(reg)
				if va != vb {
					t.Fatalf("phase %d: cpu %d register %#x reads %d vs %d", phase, cpu, reg, va, vb)
				}
			}
		}
	}
	if !moved {
		t.Fatal("no task migrated in six phases; the test does not exercise the balancer")
	}
}

func TestUnpinnedMigrationChangesOutcomes(t *testing.T) {
	// Different seeds must produce different unpinned outcomes (the whole
	// premise of the variance figures).
	results := map[float64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		m, err := NewNamed("westmereEP", Options{Policy: sched.PolicySpread, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		master := m.OS.Spawn("master", nil)
		team, err := sched.SpawnTeam(m.OS, sched.RuntimeIntelOMP, 6, master, nil)
		if err != nil {
			t.Fatal(err)
		}
		var works []*ThreadWork
		for _, w := range team.Workers {
			works = append(works, &ThreadWork{Task: w, Elems: 2e6, PerElem: streamlike()})
		}
		results[m.RunPhase(works, 0)] = true
	}
	if len(results) < 3 {
		t.Errorf("only %d distinct unpinned outcomes over 8 seeds", len(results))
	}
}

func TestInjectValidation(t *testing.T) {
	m := newWestmere(t)
	if err := m.Inject(-1, &Counts{EvInstr: 1}); err == nil {
		t.Error("negative cpu must fail")
	}
	if err := m.Inject(24, &Counts{EvInstr: 1}); err == nil {
		t.Error("out-of-range cpu must fail")
	}
}

func TestZeroCycleWorkCompletesInstantly(t *testing.T) {
	m := newWestmere(t)
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 0); err != nil {
		t.Fatal(err)
	}
	w := &ThreadWork{Task: task, Elems: 1e6, PerElem: PerElem{}}
	elapsed := m.RunPhase([]*ThreadWork{w}, 0)
	// One slice at most: work with no cost completes immediately.
	if elapsed > 2*DefaultSlice {
		t.Errorf("free work took %v", elapsed)
	}
	if w.Remaining() > 1e-9 {
		t.Error("work not completed")
	}
}
