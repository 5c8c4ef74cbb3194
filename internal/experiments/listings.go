package experiments

import (
	"fmt"
	"strings"

	"likwid/internal/cpuid"
	"likwid/internal/features"
	"likwid/internal/hwdef"
	"likwid/internal/machine"
	"likwid/internal/marker"
	"likwid/internal/perfctr"
	"likwid/internal/pin"
	"likwid/internal/sched"
	"likwid/internal/topology"
)

// Fig1Topology reproduces Fig. 1 / the §II-B listing: the thread and cache
// topology report of a node, with extended cache parameters and ASCII art.
func Fig1Topology(archName string) (string, error) {
	arch, err := hwdef.Lookup(archName)
	if err != nil {
		return "", err
	}
	info, err := topology.Probe(cpuid.NewNode(arch), arch.ClockMHz)
	if err != nil {
		return "", err
	}
	return info.Render(topology.RenderOptions{ExtendedCaches: true, ASCIIArt: true}), nil
}

// Fig2GroupMapping reproduces Fig. 2: the interaction between an event set
// (group), its hardware events, and the performance counters they are
// scheduled on.
func Fig2GroupMapping(archName, group string) (string, error) {
	arch, err := hwdef.Lookup(archName)
	if err != nil {
		return "", err
	}
	g, err := perfctr.GroupFor(arch, group)
	if err != nil {
		return "", err
	}
	m := machine.New(arch, machine.Options{Seed: 1})
	var specs []perfctr.EventSpec
	for _, ev := range g.Events {
		specs = append(specs, perfctr.EventSpec{Event: ev})
	}
	col, err := perfctr.NewCollector(m, []int{0}, specs, perfctr.Options{Multiplex: true})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2: event set %s on %s (%s)\n", g.Name, arch.Name, g.Function)
	b.WriteString(col.Describe())
	fmt.Fprintln(&b, "derived metrics:")
	for _, mtr := range g.Metrics {
		fmt.Fprintf(&b, "  %-28s = %s\n", mtr.Name, mtr.Formula)
	}
	return b.String(), nil
}

// Fig3PinMechanism reproduces Fig. 3: likwid-pin's interposition on thread
// creation, shown as the pin decisions for an Intel OpenMP team with the
// shepherd skip mask.
func Fig3PinMechanism() (string, error) {
	arch := hwdef.WestmereEP
	m := machine.New(arch, machine.Options{Policy: sched.PolicySpread, Seed: 3})
	cores, err := pin.ParseCPUList("0-3")
	if err != nil {
		return "", err
	}
	p, err := pin.New(m.OS, cores, pin.SkipMaskFor(sched.RuntimeIntelOMP))
	if err != nil {
		return "", err
	}
	master := m.OS.Spawn("a.out", nil)
	if err := p.PinProcess(master); err != nil {
		return "", err
	}
	team, err := sched.SpawnTeam(m.OS, sched.RuntimeIntelOMP, 4, master, p.Hook())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintln(&b, "Fig. 3: likwid-pin mechanism — $ likwid-pin -c 0-3 -t intel ./a.out")
	fmt.Fprintf(&b, "process pinned to core %d (KMP_AFFINITY=%s)\n", master.CPU, p.Env["KMP_AFFINITY"])
	for _, ev := range p.Log() {
		fmt.Fprintf(&b, "pthread_create wrapper: %s\n", ev.String())
	}
	fmt.Fprintf(&b, "worker placement:")
	for i, w := range team.Workers {
		fmt.Fprintf(&b, " worker%d->core%d", i, w.CPU)
	}
	fmt.Fprintln(&b)
	return b.String(), nil
}

// MarkerListing reproduces the §II-A marker-mode output: FLOPS_DP measured
// on the four cores of a Core 2 Quad with regions "Init" and "Benchmark".
func MarkerListing() (string, error) {
	arch := hwdef.Core2Quad
	m := machine.New(arch, machine.Options{Policy: sched.PolicySpread, Seed: 5})
	g, err := perfctr.GroupFor(arch, "FLOPS_DP")
	if err != nil {
		return "", err
	}
	var specs []perfctr.EventSpec
	for _, ev := range g.Events {
		specs = append(specs, perfctr.EventSpec{Event: ev})
	}
	cpus := []int{0, 1, 2, 3}
	col, err := perfctr.NewCollector(m, cpus, specs, perfctr.Options{})
	if err != nil {
		return "", err
	}
	if err := col.Start(); err != nil {
		return "", err
	}
	mk, err := marker.New(col, arch.ClockHz(), 4)
	if err != nil {
		return "", err
	}
	initID := mk.RegisterRegion("Init")
	benchID := mk.RegisterRegion("Benchmark")

	// Four pinned worker threads, as the paper's example program has.
	var tasks []*sched.Task
	for _, cpu := range cpus {
		t := m.OS.Spawn(fmt.Sprintf("worker-%d", cpu), nil)
		if err := m.OS.Pin(t, cpu); err != nil {
			return "", err
		}
		tasks = append(tasks, t)
	}
	runBurst := func(elems float64, packedPerElem float64) error {
		var works []*machine.ThreadWork
		for _, t := range tasks {
			works = append(works, &machine.ThreadWork{
				Task: t, Elems: elems,
				PerElem: machine.PerElem{
					Cycles: 1.5,
					Counts: machine.Counts{
						machine.EvInstr:         2,
						machine.EvFlopsPackedDP: packedPerElem,
					},
					Vector: true,
				},
			})
		}
		m.RunPhase(works, 0)
		return nil
	}
	// Init region: tiny scalar setup (the listing's near-zero counts).
	for tid, cpu := range cpus {
		if err := mk.StartRegion(tid, cpu); err != nil {
			return "", err
		}
	}
	// One scalar SSE op per core, exactly as in the paper's Init region.
	for _, cpu := range cpus {
		if err := m.Inject(cpu, &machine.Counts{
			machine.EvInstr: 330000, machine.EvCycles: 420000, machine.EvFlopsScalarDP: 1,
		}); err != nil {
			return "", err
		}
	}
	for tid, cpu := range cpus {
		if err := mk.StopRegion(tid, cpu, initID); err != nil {
			return "", err
		}
	}
	// Benchmark region: the packed-SSE triad burst.
	for tid, cpu := range cpus {
		if err := mk.StartRegion(tid, cpu); err != nil {
			return "", err
		}
	}
	if err := runBurst(8.192e6, 1); err != nil {
		return "", err
	}
	for tid, cpu := range cpus {
		if err := mk.StopRegion(tid, cpu, benchID); err != nil {
			return "", err
		}
	}
	if err := mk.Close(); err != nil {
		return "", err
	}
	if err := col.Stop(); err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "$ likwid-perfCtr -c 0-3 -g FLOPS_DP -m ./a.out\n")
	b.WriteString(perfctr.Header(arch.ModelName, arch.ClockMHz))
	fmt.Fprintf(&b, "Measuring group FLOPS_DP\n")
	b.WriteString(strings.Repeat("-", 61) + "\n")
	b.WriteString(mk.Report(&g))
	return b.String(), nil
}

// EventGroupTable reproduces the §II-A table of preconfigured event sets.
func EventGroupTable(archName string) (string, error) {
	arch, err := hwdef.Lookup(archName)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Preconfigured event sets on %s:\n", arch.Name)
	fmt.Fprintf(&b, "%-10s %s\n", "Event set", "Function")
	for _, name := range perfctr.GroupNames(arch) {
		g, err := perfctr.GroupFor(arch, name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-10s %s\n", g.Name, g.Function)
	}
	return b.String(), nil
}

// FeaturesListing reproduces the §II-D likwid-features output, including
// the paper's toggle example (-u CL_PREFETCHER).
func FeaturesListing() (string, error) {
	arch := hwdef.Core2Duo65
	m := machine.New(arch, machine.Options{Seed: 1})
	tool, err := features.New(m.MSRs, arch, 0)
	if err != nil {
		return "", err
	}
	before, err := tool.Render()
	if err != nil {
		return "", err
	}
	if err := tool.Disable("CL_PREFETCHER"); err != nil {
		return "", err
	}
	on, err := tool.Enabled("CL_PREFETCHER")
	if err != nil {
		return "", err
	}
	state := "disabled"
	if on {
		state = "enabled"
	}
	var b strings.Builder
	fmt.Fprintln(&b, "$ likwid-features")
	b.WriteString(before)
	fmt.Fprintln(&b, "$ likwid-features -u CL_PREFETCHER")
	fmt.Fprintf(&b, "CL_PREFETCHER: %s\n", state)
	return b.String(), nil
}
