package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"likwid/internal/hwdef"
)

func TestMaskBasics(t *testing.T) {
	m := MaskOf(0, 2, 3)
	if !m.Has(0) || m.Has(1) || !m.Has(3) {
		t.Fatalf("mask membership broken: %v", m)
	}
	if m.Count() != 3 {
		t.Errorf("count = %d, want 3", m.Count())
	}
	m = m.Clear(2)
	if m.Has(2) || m.Count() != 2 {
		t.Errorf("clear failed: %v", m)
	}
	if MaskAll(4) != MaskOf(0, 1, 2, 3) {
		t.Error("MaskAll(4) wrong")
	}
	if MaskAll(64) != ^Mask(0) {
		t.Error("MaskAll(64) must cover all bits")
	}
}

func TestMaskString(t *testing.T) {
	cases := map[string]Mask{
		"0-3":     MaskOf(0, 1, 2, 3),
		"0,2":     MaskOf(0, 2),
		"0-1,8":   MaskOf(0, 1, 8),
		"5":       MaskOf(5),
		"(empty)": 0,
	}
	for want, m := range cases {
		if got := m.String(); got != want {
			t.Errorf("mask %b string = %q, want %q", uint64(m), got, want)
		}
	}
}

func TestMaskRoundtripProperty(t *testing.T) {
	f := func(v uint64) bool {
		m := Mask(v)
		back := MaskOf(m.CPUs()...)
		return back == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpawnPlacesOnIdleCPU(t *testing.T) {
	k := New(hwdef.WestmereEP, PolicySpread, 1)
	seen := map[int]bool{}
	for i := 0; i < 24; i++ {
		tk := k.Spawn("w", nil)
		if tk.CPU < 0 || tk.CPU >= 24 {
			t.Fatalf("task placed on cpu %d", tk.CPU)
		}
		if seen[tk.CPU] {
			t.Fatalf("two tasks share cpu %d while idle CPUs remain", tk.CPU)
		}
		seen[tk.CPU] = true
	}
}

func TestCompactPolicyFillsParentSocketFirst(t *testing.T) {
	k := New(hwdef.WestmereEP, PolicyCompact, 7)
	master := k.Spawn("master", nil)
	// Compact placement starts the master at socket 0, cpu 0.
	if s := k.SocketOf(master.CPU); s != 0 {
		t.Fatalf("master on socket %d, want 0", s)
	}
	// The first 11 children must fill socket 0's 12 hardware threads
	// (physical cores 0-5 then SMT siblings 12-17) before socket 1.
	for i := 0; i < 11; i++ {
		c := k.Spawn("w", master)
		if got := k.SocketOf(c.CPU); got != 0 {
			t.Fatalf("child %d on socket %d, want 0 (compact fills parent socket)", i, got)
		}
	}
	spill := k.Spawn("w", master)
	if got := k.SocketOf(spill.CPU); got != 1 {
		t.Errorf("12th child on socket %d, want 1 (spill)", got)
	}
}

func TestCompactFillsSMTSiblingPairs(t *testing.T) {
	// Compact placement walks sibling-adjacent enumeration: both hardware
	// threads of core 0 before core 1 — the thread-numbering trap of the
	// paper's introduction.  Master on cpu 0, then 12 (its sibling), 1, 13.
	k := New(hwdef.WestmereEP, PolicyCompact, 7)
	master := k.Spawn("master", nil)
	want := []int{0, 12, 1, 13, 2}
	cpus := []int{master.CPU}
	for i := 0; i < 4; i++ {
		cpus = append(cpus, k.Spawn("w", master).CPU)
	}
	for i, c := range cpus {
		if c != want[i] {
			t.Fatalf("compact placement = %v, want %v", cpus, want)
		}
	}
}

func TestSetAffinityMigrates(t *testing.T) {
	k := New(hwdef.WestmereEP, PolicySpread, 3)
	tk := k.Spawn("w", nil)
	if err := k.SetAffinity(tk, MaskOf(5)); err != nil {
		t.Fatal(err)
	}
	if tk.CPU != 5 || !tk.Pinned {
		t.Fatalf("task on cpu %d pinned=%v, want 5/true", tk.CPU, tk.Pinned)
	}
	if k.Load(5) != 1 {
		t.Errorf("load[5] = %d, want 1", k.Load(5))
	}
}

func TestSetAffinityErrors(t *testing.T) {
	k := New(hwdef.WestmereEP, PolicySpread, 3)
	tk := k.Spawn("w", nil)
	if err := k.SetAffinity(tk, 0); err == nil {
		t.Error("empty mask must fail")
	}
	if err := k.Pin(tk, 99); err == nil {
		t.Error("pin to nonexistent cpu must fail")
	}
}

func TestPinnedTasksNeverMigrate(t *testing.T) {
	k := New(hwdef.WestmereEP, PolicySpread, 3)
	pinned := k.Spawn("p", nil)
	if err := k.Pin(pinned, 2); err != nil {
		t.Fatal(err)
	}
	// Crowd cpu 2 to tempt the balancer.
	for i := 0; i < 4; i++ {
		other := k.Spawn("o", nil)
		if err := k.SetAffinity(other, MaskOf(2)); err != nil {
			t.Fatal(err)
		}
		other.Pinned = false // make them balancer-eligible
	}
	for i := 0; i < 200; i++ {
		k.Rebalance(0.5)
	}
	if pinned.CPU != 2 {
		t.Fatalf("pinned task migrated to cpu %d", pinned.CPU)
	}
}

func TestRebalancePullsFromOverloadedCPU(t *testing.T) {
	k := New(hwdef.WestmereEP, PolicySpread, 11)
	a := k.Spawn("a", nil)
	b := k.Spawn("b", nil)
	if err := k.SetAffinity(a, MaskAll(24)); err != nil {
		t.Fatal(err)
	}
	if err := k.SetAffinity(b, MaskAll(24)); err != nil {
		t.Fatal(err)
	}
	// Force both on cpu 0.
	for _, tk := range []*Task{a, b} {
		if tk.CPU != 0 {
			k.SetAffinity(tk, MaskOf(0))
			k.SetAffinity(tk, MaskAll(24))
			tk.Pinned = false
			// SetAffinity to the full mask keeps the current cpu; put it
			// back on 0 via the load bookkeeping check below.
		}
	}
	// However they ended up, collapse them onto cpu 0 deterministically:
	for _, tk := range []*Task{a, b} {
		k.SetAffinity(tk, MaskOf(0))
		tk.Affinity = MaskAll(24)
		tk.Pinned = false
	}
	if k.Load(0) != 2 {
		t.Fatalf("setup failed: load[0] = %d, want 2", k.Load(0))
	}
	moved := false
	for i := 0; i < 500 && !moved; i++ {
		k.Rebalance(0.3)
		moved = k.Load(0) < 2
	}
	if !moved {
		t.Error("balancer never moved a task off an overloaded cpu")
	}
}

func TestSpawnTeamIntelShepherd(t *testing.T) {
	k := New(hwdef.WestmereEP, PolicySpread, 5)
	master := k.Spawn("a.out", nil)
	var hookOrder []string
	team, err := SpawnTeam(k, RuntimeIntelOMP, 4, master, func(i int, tk *Task) {
		hookOrder = append(hookOrder, tk.Name)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Intel: OMP_NUM_THREADS+1 threads created... the paper: master plus
	// N created, first created is the shepherd.
	if len(team.Created) != 4 {
		t.Fatalf("created %d threads, want 4 (shepherd + 3 workers)", len(team.Created))
	}
	if hookOrder[0] != "omp-shepherd" {
		t.Errorf("first created thread = %q, want the shepherd", hookOrder[0])
	}
	if len(team.Workers) != 4 {
		t.Fatalf("workers = %d, want 4", len(team.Workers))
	}
	if team.Workers[0] != master {
		t.Error("master must be worker 0")
	}
	for _, w := range team.Workers {
		if w.Name == "omp-shepherd" {
			t.Error("shepherd must not be a worker")
		}
	}
}

func TestSpawnTeamGcc(t *testing.T) {
	k := New(hwdef.WestmereEP, PolicySpread, 5)
	master := k.Spawn("a.out", nil)
	team, err := SpawnTeam(k, RuntimeGccOMP, 4, master, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(team.Created) != 3 {
		t.Fatalf("gcc created %d threads, want 3 (N-1)", len(team.Created))
	}
	if len(team.Workers) != 4 || team.Workers[0] != master {
		t.Fatalf("workers wrong: %d", len(team.Workers))
	}
}

func TestSpawnTeamPthreads(t *testing.T) {
	k := New(hwdef.NehalemEP, PolicySpread, 5)
	master := k.Spawn("jacobi", nil)
	team, err := SpawnTeam(k, RuntimePthreads, 4, master, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(team.Created) != 4 || len(team.Workers) != 4 {
		t.Fatalf("pthreads team = %d created %d workers, want 4/4", len(team.Created), len(team.Workers))
	}
	for _, w := range team.Workers {
		if w == master {
			t.Error("pthreads master must not be a worker")
		}
	}
	team.Exit(k)
	if got := len(k.Tasks()); got != 1 {
		t.Errorf("after team exit %d tasks remain, want 1 (master)", got)
	}
}

func TestSpawnTeamErrors(t *testing.T) {
	k := New(hwdef.WestmereEP, PolicySpread, 5)
	if _, err := SpawnTeam(k, RuntimeGccOMP, 0, k.Spawn("m", nil), nil); err == nil {
		t.Error("zero workers must fail")
	}
	if _, err := SpawnTeam(k, RuntimeGccOMP, 2, nil, nil); err == nil {
		t.Error("nil master must fail")
	}
}

func TestParseRuntime(t *testing.T) {
	for s, want := range map[string]RuntimeModel{
		"intel": RuntimeIntelOMP, "gnu": RuntimeGccOMP, "gcc": RuntimeGccOMP,
		"pthreads": RuntimePthreads, "": RuntimePthreads,
	} {
		got, err := ParseRuntime(s)
		if err != nil || got != want {
			t.Errorf("ParseRuntime(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseRuntime("rust"); err == nil {
		t.Error("unknown runtime must fail")
	}
}

func TestExitReleasesCPU(t *testing.T) {
	k := New(hwdef.WestmereEP, PolicySpread, 9)
	tk := k.Spawn("w", nil)
	cpu := tk.CPU
	k.Exit(tk)
	if k.Load(cpu) != 0 {
		t.Errorf("load[%d] = %d after exit, want 0", cpu, k.Load(cpu))
	}
	k.Exit(tk) // double exit is a no-op
}

// TestTaskOrderFollowsSpawnAndExit: after every step of a random
// Spawn/Exit sequence (double exits included) the kernel's kept task slice
// and Tasks() both list exactly the live tasks of a model, in ID order,
// and the per-cpu loads add up to them.  Rebalance walks that slice, so
// its order is what keeps a seed's runs reproducible.
func TestTaskOrderFollowsSpawnAndExit(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := New(hwdef.WestmereEP, PolicySpread, seed)
		live := map[int]*Task{}
		var gone []*Task
		for step := 0; step < 200; step++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(live) == 0:
				var parent *Task
				for _, p := range live {
					parent = p
					break
				}
				tk := k.Spawn("w", parent)
				live[tk.ID] = tk
			case r < 9:
				ids := make([]int, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Ints(ids)
				tk := live[ids[rng.Intn(len(ids))]]
				k.Exit(tk)
				delete(live, tk.ID)
				gone = append(gone, tk)
			default:
				if len(gone) > 0 {
					k.Exit(gone[rng.Intn(len(gone))]) // already gone: a no-op
				}
			}
			want := make([]*Task, 0, len(live))
			for _, tk := range live {
				want = append(want, tk)
			}
			sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
			if !slices.Equal(k.tasks, want) {
				t.Fatalf("seed %d step %d: kept slice %v, want %v", seed, step, taskIDs(k.tasks), taskIDs(want))
			}
			if got := k.Tasks(); !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: Tasks() = %v, want %v", seed, step, taskIDs(got), taskIDs(want))
			}
			load := 0
			for cpu := 0; cpu < k.NumCPUs(); cpu++ {
				load += k.Load(cpu)
			}
			if load != len(live) {
				t.Fatalf("seed %d step %d: loads sum to %d for %d live tasks", seed, step, load, len(live))
			}
		}
	}
}

func taskIDs(ts []*Task) []int {
	ids := make([]int, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}
