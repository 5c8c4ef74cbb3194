// Package sched models the operating-system scheduler of the simulated
// node: task placement onto hardware threads, affinity masks, thread
// creation with per-runtime spawn patterns, and the migration noise that
// makes unpinned runs statistically unstable.
//
// This is the substrate likwid-pin works against.  The paper's Figs. 4-10
// are reproduced by exactly the mechanisms here: without pinning, placement
// follows a policy with randomness (so bandwidth varies run to run);
// with pinning, SetAffinity nails each task to one hardware thread.
package sched

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"likwid/internal/apic"
	"likwid/internal/hwdef"
)

// Policy selects how the scheduler places new, unpinned tasks.
type Policy int

// Placement policies.
const (
	// PolicySpread places tasks uniformly at random among idle logical
	// CPUs (falling back to least-loaded), with a wake-affine bias: a
	// spawn burst frequently drops the child on its parent's CPU until
	// the balancer pulls it away.  It models a noisy busy-wait-heavy
	// runtime whose threads land anywhere — the behaviour behind the
	// broad unpinned variance of the Intel runs (Figs. 4, 9).
	PolicySpread Policy = iota
	// PolicyCompact places tasks near their parent, walking the parent's
	// socket in SMT-sibling-adjacent order (both hardware threads of
	// core 0, then core 1, …) before spilling to the next socket.  This
	// models runtimes that spawn quickly on systems whose BIOS numbers
	// sibling threads adjacently — exactly the numbering trap the paper's
	// introduction warns about — and is the behaviour behind gcc's
	// consistently poor low-thread-count results (Fig. 7).
	PolicyCompact Policy = iota
)

// wakeAffineProb is the chance a spawned task starts on its parent's CPU.
const wakeAffineProb = 0.35

// Task is one schedulable thread.
type Task struct {
	ID       int
	Name     string
	Affinity Mask
	CPU      int  // current hardware thread
	Pinned   bool // set once affinity is a single CPU; pinned tasks never migrate
}

// Kernel is the scheduler state of one node.
type Kernel struct {
	arch   *hwdef.Arch
	topo   []apic.ThreadInfo
	policy Policy
	rng    *rand.Rand
	tasks  []*Task // live tasks in ID order: Spawn appends, Exit removes
	load   []int   // runnable tasks per cpu
	nextID int
}

// New creates a scheduler for the architecture.  The seed makes each sample
// of a statistical experiment reproducible.
func New(a *hwdef.Arch, policy Policy, seed int64) *Kernel {
	return &Kernel{
		arch:   a,
		topo:   apic.Enumerate(a),
		policy: policy,
		rng:    rand.New(rand.NewSource(seed)),
		load:   make([]int, a.HWThreads()),
	}
}

// NumCPUs returns the number of logical processors.
func (k *Kernel) NumCPUs() int { return len(k.load) }

// SocketOf returns the socket of a logical processor.
func (k *Kernel) SocketOf(cpu int) int { return k.topo[cpu].Socket }

// CoreOf returns (socket, coreIdx) identifying the physical core.
func (k *Kernel) CoreOf(cpu int) (int, int) {
	return k.topo[cpu].Socket, k.topo[cpu].CoreIdx
}

// Load returns the number of runnable tasks on a cpu.
func (k *Kernel) Load(cpu int) int { return k.load[cpu] }

// Tasks returns all live tasks in creation (ID) order.
func (k *Kernel) Tasks() []*Task {
	return append(make([]*Task, 0, len(k.tasks)), k.tasks...)
}

// Spawn creates a task and places it.  A nil parent models a process start.
func (k *Kernel) Spawn(name string, parent *Task) *Task {
	t := &Task{
		ID:       k.nextID,
		Name:     name,
		Affinity: MaskAll(k.NumCPUs()),
		CPU:      -1,
	}
	k.nextID++
	k.tasks = append(k.tasks, t) // IDs only grow, so the order holds
	k.place(t, parent)
	return t
}

// Exit removes a task from the system.
func (k *Kernel) Exit(t *Task) {
	i, ok := slices.BinarySearchFunc(k.tasks, t.ID, func(x *Task, id int) int { return cmp.Compare(x.ID, id) })
	if !ok {
		return
	}
	if t.CPU >= 0 {
		k.load[t.CPU]--
	}
	k.tasks = slices.Delete(k.tasks, i, i+1)
}

// SetAffinity restricts a task to mask, migrating it if its current CPU is
// no longer allowed.  A single-CPU mask pins the task permanently, which is
// what likwid-pin's wrapper does per created thread.
func (k *Kernel) SetAffinity(t *Task, m Mask) error {
	if m == 0 {
		return fmt.Errorf("sched: empty affinity mask for task %d", t.ID)
	}
	allowed := m & MaskAll(k.NumCPUs())
	if allowed == 0 {
		return fmt.Errorf("sched: mask %s has no CPU on this node", m)
	}
	t.Affinity = allowed
	t.Pinned = allowed.Count() == 1
	if t.CPU < 0 || !allowed.Has(t.CPU) {
		k.migrate(t, k.leastLoaded(allowed.CPUs()))
	}
	return nil
}

// Pin is SetAffinity to exactly one processor.
func (k *Kernel) Pin(t *Task, cpu int) error {
	if cpu < 0 || cpu >= k.NumCPUs() {
		return fmt.Errorf("sched: pin to nonexistent cpu %d", cpu)
	}
	return k.SetAffinity(t, MaskOf(cpu))
}

func (k *Kernel) migrate(t *Task, cpu int) {
	if t.CPU == cpu {
		return
	}
	if t.CPU >= 0 {
		k.load[t.CPU]--
	}
	t.CPU = cpu
	k.load[cpu]++
}

// place performs initial placement according to the policy.
func (k *Kernel) place(t *Task, parent *Task) {
	allowed := t.Affinity.CPUs()
	var target int
	switch k.policy {
	case PolicyCompact:
		target = k.placeCompact(allowed, parent)
	default:
		target = k.placeSpread(allowed, parent)
	}
	t.CPU = target
	k.load[target]++
}

// placeSpread: wake-affine with probability wakeAffineProb, otherwise
// uniformly random among idle allowed CPUs; if none are idle, uniformly
// random among the least-loaded ones.
func (k *Kernel) placeSpread(allowed []int, parent *Task) int {
	if parent != nil && parent.CPU >= 0 && k.rng.Float64() < wakeAffineProb {
		for _, c := range allowed {
			if c == parent.CPU {
				return c
			}
		}
	}
	var idle []int
	for _, c := range allowed {
		if k.load[c] == 0 {
			idle = append(idle, c)
		}
	}
	if len(idle) > 0 {
		return idle[k.rng.Intn(len(idle))]
	}
	minLoad := k.load[allowed[0]]
	for _, c := range allowed[1:] {
		if k.load[c] < minLoad {
			minLoad = k.load[c]
		}
	}
	var light []int
	for _, c := range allowed {
		if k.load[c] == minLoad {
			light = append(light, c)
		}
	}
	return light[k.rng.Intn(len(light))]
}

// placeCompact: walk the parent's socket first in SMT-sibling-adjacent
// order (core 0 thread 0, core 0 thread 1, core 1 thread 0, …), then the
// remaining sockets; take the first idle CPU, falling back to the
// least-loaded.
func (k *Kernel) placeCompact(allowed []int, parent *Task) int {
	home := 0
	if parent != nil && parent.CPU >= 0 {
		home = k.SocketOf(parent.CPU)
	}
	allowedSet := MaskOf(allowed...)
	order := make([]int, 0, len(k.topo))
	for s := 0; s < k.arch.Sockets; s++ {
		socket := (home + s) % k.arch.Sockets
		for core := 0; core < k.arch.CoresPerSocket; core++ {
			for _, ti := range k.topo {
				if ti.Socket == socket && ti.CoreIdx == core && allowedSet.Has(ti.Proc) {
					order = append(order, ti.Proc)
				}
			}
		}
	}
	for _, c := range order {
		if k.load[c] == 0 {
			return c
		}
	}
	return k.leastLoaded(order)
}

func (k *Kernel) leastLoaded(cpus []int) int {
	best := cpus[0]
	for _, c := range cpus[1:] {
		if k.load[c] < k.load[best] {
			best = c
		}
	}
	return best
}

// Rebalance runs one load-balancer step: with probability prob per
// overloaded unpinned task, migrate it to an idle allowed CPU (idle cores
// pull work, as the Linux balancer does).  A much smaller background
// probability migrates even balanced tasks, modelling interrupts and
// competing system activity.
func (k *Kernel) Rebalance(prob float64) {
	// Deterministic iteration order: the balancer consumes randomness per
	// task, so it walks the tasks in ID order.
	for _, t := range k.tasks {
		if t.Pinned || t.CPU < 0 {
			continue
		}
		overloaded := k.load[t.CPU] > 1
		p := prob / 20 // background noise
		if overloaded {
			p = prob
		}
		if k.rng.Float64() >= p {
			continue
		}
		n, _ := k.idleIn(t.Affinity, -1)
		if n == 0 {
			continue
		}
		_, cpu := k.idleIn(t.Affinity, k.rng.Intn(n))
		k.migrate(t, cpu)
	}
}

// idleIn counts the idle CPUs of mask and returns, as cpu, the nth of them
// in ascending order (-1 if there are not that many).
func (k *Kernel) idleIn(mask Mask, nth int) (n, cpu int) {
	cpu = -1
	for m := mask; m != 0; {
		c := bits.TrailingZeros64(uint64(m))
		m = m.Clear(c)
		if k.load[c] != 0 {
			continue
		}
		if n == nth {
			cpu = c
		}
		n++
	}
	return n, cpu
}
