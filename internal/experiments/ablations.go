package experiments

import (
	"fmt"
	"math"
	"strings"

	"likwid/internal/cache"
	"likwid/internal/hwdef"
	"likwid/internal/machine"
	"likwid/internal/msr"
	"likwid/internal/perfctr"
	"likwid/internal/stats"
	"likwid/internal/workloads/kernels"
	"likwid/internal/workloads/stream"
)

// Ablation studies for the tools' design choices: event multiplexing,
// the uncore socket lock, prefetcher control, thread placement and SMT
// ordering.  Each returns the data series plus a Render helper.

// MuxErrorPoint is one run length of the multiplex-accuracy ablation.
type MuxErrorPoint struct {
	Elems    float64
	RelError float64 // |estimate - truth| / truth for a rotated event
}

// AblationMultiplex quantifies the paper's warning that "short-running
// measurements will carry large statistical errors" under multiplexing:
// relative extrapolation error of a rotated counter vs run length.
func AblationMultiplex() ([]MuxErrorPoint, error) {
	arch := hwdef.Core2Quad // 2 counters: 4 events force 2 sets
	var out []MuxErrorPoint
	for _, elems := range []float64{5e5, 2e6, 8e6, 3.2e7} {
		m := machine.New(arch, machine.Options{Seed: 17})
		task := m.OS.Spawn("w", nil)
		if err := m.OS.Pin(task, 0); err != nil {
			return nil, err
		}
		specs, err := perfctr.ParseEventList(
			"SIMD_COMP_INST_RETIRED_PACKED_DOUBLE,SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE,L1D_REPL,L2_LINES_IN_ANY")
		if err != nil {
			return nil, err
		}
		col, err := perfctr.NewCollector(m, []int{0}, specs, perfctr.Options{Multiplex: true, MuxInterval: 0.004})
		if err != nil {
			return nil, err
		}
		if err := col.Start(); err != nil {
			return nil, err
		}
		m.RunPhase([]*machine.ThreadWork{{
			Task: task, Elems: elems,
			PerElem: machine.PerElem{
				Cycles: 2,
				Counts: machine.Counts{machine.EvInstr: 3, machine.EvFlopsPackedDP: 1, machine.EvL1LinesIn: 0.125},
				Vector: true,
			},
		}}, 0)
		if err := col.Stop(); err != nil {
			return nil, err
		}
		r := col.Read()
		// The worst event across both multiplex sets: a run shorter than
		// the rotation interval never measures the second set at all.
		packed := r.Counts["SIMD_COMP_INST_RETIRED_PACKED_DOUBLE"][0]
		l1 := r.Counts["L1D_REPL"][0]
		errPacked := math.Abs(packed-elems) / elems
		errL1 := math.Abs(l1-elems*0.125) / (elems * 0.125)
		out = append(out, MuxErrorPoint{
			Elems:    elems,
			RelError: math.Max(errPacked, errL1),
		})
	}
	return out, nil
}

// RenderMultiplex prints the multiplex ablation.
func RenderMultiplex(points []MuxErrorPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: multiplex extrapolation error vs measurement length")
	fmt.Fprintf(&b, "%14s %12s\n", "elements", "rel. error")
	for _, p := range points {
		fmt.Fprintf(&b, "%14.0f %11.1f%%\n", p.Elems, p.RelError*100)
	}
	return b.String()
}

// SocketLockResult compares correct (locked) uncore attribution with what a
// naive tool reading the shared bank from every measured core would report.
type SocketLockResult struct {
	TrueLines   float64 // socket traffic counted once
	LockedSum   float64 // sum over report columns with socket lock
	NaiveSum    float64 // sum when every core reads the shared bank
	Overcount   float64 // NaiveSum / TrueLines
	MeasuredCPU int
}

// AblationSocketLock demonstrates why uncore events need socket locks: the
// uncore bank is per-socket shared state, so summing per-core readings
// multiplies the real count by the number of measured cores.
func AblationSocketLock() (*SocketLockResult, error) {
	arch := hwdef.NehalemEP
	m := machine.New(arch, machine.Options{Seed: 23})
	task := m.OS.Spawn("w", nil)
	if err := m.OS.Pin(task, 0); err != nil {
		return nil, err
	}
	specs, err := perfctr.ParseEventList("UNC_L3_LINES_IN_ANY:UPMC0")
	if err != nil {
		return nil, err
	}
	cpus := []int{0, 1, 2, 3}
	col, err := perfctr.NewCollector(m, cpus, specs, perfctr.Options{})
	if err != nil {
		return nil, err
	}
	if err := col.Start(); err != nil {
		return nil, err
	}
	const elems = 1e7
	m.RunPhase([]*machine.ThreadWork{{
		Task: task, Elems: elems,
		PerElem: machine.PerElem{Cycles: 1, MemReadBytes: 16, Streams: 3, Vector: true},
	}}, 0)

	// Naive tool: read the (shared) uncore counter through every core's
	// MSR device and add the readings up.
	var naive float64
	for _, cpu := range cpus {
		dev, err := m.MSRs.Open(cpu)
		if err != nil {
			return nil, err
		}
		v, err := dev.Read(msr.UncPMC)
		if err != nil {
			return nil, err
		}
		naive += float64(v)
	}
	if err := col.Stop(); err != nil {
		return nil, err
	}
	r := col.Read()
	var locked float64
	for _, v := range r.Counts["UNC_L3_LINES_IN_ANY"] {
		locked += v
	}
	truth := 16 * elems / 64
	return &SocketLockResult{
		TrueLines: truth,
		LockedSum: locked,
		NaiveSum:  naive,
		Overcount: naive / truth,
	}, nil
}

// RenderSocketLock prints the socket-lock ablation.
func RenderSocketLock(r *SocketLockResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: socket lock for uncore events (UNC_L3_LINES_IN_ANY)")
	fmt.Fprintf(&b, "true socket lines:        %.3e\n", r.TrueLines)
	fmt.Fprintf(&b, "with socket lock (sum):   %.3e\n", r.LockedSum)
	fmt.Fprintf(&b, "naive per-core sum:       %.3e (%.1fx overcount)\n", r.NaiveSum, r.Overcount)
	return b.String()
}

// PrefetchPoint is one prefetcher configuration of the prefetch ablation.
type PrefetchPoint struct {
	Disabled     string // which unit is off ("none" for baseline)
	BandwidthMBs float64
}

// AblationPrefetchers reproduces the likwid-features use case: streaming
// bandwidth with individual prefetch units disabled on a Core 2.
func AblationPrefetchers() ([]PrefetchPoint, error) {
	arch := hwdef.Core2Quad
	k, err := kernels.ByName("load")
	if err != nil {
		return nil, err
	}
	const ws = 16 << 20
	configs := []string{"none", "HW_PREFETCHER", "CL_PREFETCHER", "DCU_PREFETCHER", "all"}
	var out []PrefetchPoint
	for _, disabled := range configs {
		gates := cache.PrefetchGates{}
		for _, p := range arch.Prefetchers {
			name := p.Name
			off := disabled == "all" || name == disabled
			enabled := !off
			gates[name] = func() bool { return enabled }
		}
		pt, err := kernels.Run(arch, k, ws, gates)
		if err != nil {
			return nil, err
		}
		out = append(out, PrefetchPoint{Disabled: disabled, BandwidthMBs: pt.BandwidthMBs})
	}
	return out, nil
}

// RenderPrefetchers prints the prefetcher ablation.
func RenderPrefetchers(points []PrefetchPoint) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: hardware prefetchers vs streaming load bandwidth (Core 2, 16 MiB)")
	fmt.Fprintf(&b, "%16s %14s\n", "disabled unit", "MB/s")
	for _, p := range points {
		fmt.Fprintf(&b, "%16s %14.0f\n", p.Disabled, p.BandwidthMBs)
	}
	return b.String()
}

// PlacementPoint is one scheduler policy of the placement ablation.
type PlacementPoint struct {
	Policy string
	Stats  stats.Summary
}

// AblationPlacement compares the unpinned STREAM bandwidth distribution
// under the two placement policies (the icc-like spread and gcc-like
// compact models).
func AblationPlacement(threads, samples int) ([]PlacementPoint, error) {
	arch := hwdef.WestmereEP
	var out []PlacementPoint
	for _, c := range []stream.Compiler{stream.ICC, stream.GCC} {
		bw, err := stream.RunSamples(stream.Config{
			Arch: arch, Compiler: c, Threads: threads, Mode: stream.Unpinned, Seed: 31,
		}, samples)
		if err != nil {
			return nil, err
		}
		label := "spread (icc runtime)"
		if c == stream.GCC {
			label = "compact (gcc runtime)"
		}
		out = append(out, PlacementPoint{Policy: label, Stats: stats.Summarize(bw)})
	}
	return out, nil
}

// RenderPlacement prints the placement ablation.
func RenderPlacement(points []PlacementPoint, threads int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: unpinned placement policy, STREAM %d threads [MB/s]\n", threads)
	for _, p := range points {
		fmt.Fprintf(&b, "%-24s %s\n", p.Policy, p.Stats.String())
	}
	return b.String()
}

// SMTOrderResult compares pinning orders for a full-socket STREAM run.
type SMTOrderResult struct {
	PhysicalFirstMBs float64 // 0,6,1,7,... physical cores first
	SiblingFirstMBs  float64 // 0,12,1,13,... SMT pairs first
}

// AblationSMTOrder shows why likwid-pin core lists should fill physical
// cores before SMT siblings: packing both hyperthreads of a core before
// using the next core wastes memory pipelines.
func AblationSMTOrder() (*SMTOrderResult, error) {
	arch := hwdef.WestmereEP
	run := func(list []int) (float64, error) {
		bw, err := streamPinnedTo(arch, list)
		if err != nil {
			return 0, err
		}
		return bw, nil
	}
	physFirst := stream.ScatterList(arch)[:12]
	var siblingFirst []int
	for core := 0; core < 6; core++ {
		siblingFirst = append(siblingFirst, core, core+12)
	}
	phys, err := run(physFirst)
	if err != nil {
		return nil, err
	}
	sib, err := run(siblingFirst)
	if err != nil {
		return nil, err
	}
	return &SMTOrderResult{PhysicalFirstMBs: phys, SiblingFirstMBs: sib}, nil
}

// streamPinnedTo runs a 12-thread icc STREAM pinned to an explicit list.
func streamPinnedTo(arch *hwdef.Arch, list []int) (float64, error) {
	m := machine.New(arch, machine.Options{Seed: 37})
	var works []*machine.ThreadWork
	for i := 0; i < len(list); i++ {
		t := m.OS.Spawn("w", nil)
		if err := m.OS.Pin(t, list[i]); err != nil {
			return 0, err
		}
		works = append(works, &machine.ThreadWork{
			Task: t, Elems: 2e7 / float64(len(list)),
			PerElem: machine.PerElem{
				Cycles: 0.95, MemReadBytes: 16, MemWriteBytes: 8, Streams: 3, Vector: true,
			},
		})
	}
	elapsed := m.RunPhase(works, 0)
	return 2e7 * stream.BytesPerElem / elapsed / 1e6, nil
}

// RenderSMTOrder prints the SMT-order ablation.
func RenderSMTOrder(r *SMTOrderResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: 12-thread pin order on Westmere EP [MB/s]")
	fmt.Fprintf(&b, "physical cores first: %14.0f\n", r.PhysicalFirstMBs)
	fmt.Fprintf(&b, "SMT siblings first:   %14.0f\n", r.SiblingFirstMBs)
	return b.String()
}
