// likwid-repro regenerates every table and figure of the paper's
// evaluation, printing the rows/series behind each plot plus the ablation
// studies.  This is the one-shot reproduction driver; the paper's
// published values and the tolerances the reproduction is held to live
// beside the experiments, e.g. paperTableII and TestTableIIAgainstPaper
// in internal/experiments.
//
// Usage:
//
//	likwid-repro [-only ID] [-samples N] [-iters N]
//
//	-only ID     run a single experiment: fig1 fig2 fig3 fig4..fig11
//	             marker groups table1 table2 ablations
//	-samples N   samples per STREAM thread count (paper: 100)
//	-iters N     Jacobi sweeps per Fig. 11 point (default 20)
package main

import (
	"flag"
	"fmt"
	"os"

	"likwid/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment id")
	samples := flag.Int("samples", 100, "STREAM samples per thread count")
	iters := flag.Int("iters", 20, "Jacobi iterations per Fig. 11 point")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "likwid-repro:", err)
		os.Exit(1)
	}
	want := func(id string) bool { return *only == "" || *only == id }
	section := func(title string) {
		fmt.Printf("\n================ %s ================\n", title)
	}

	if want("fig1") {
		section("Fig. 1 / §II-B: node topology (likwid-topology)")
		for _, arch := range []string{"nehalemEP", "westmereEP"} {
			out, err := experiments.Fig1Topology(arch)
			if err != nil {
				fail(err)
			}
			fmt.Print(out)
		}
	}
	if want("fig2") {
		section("Fig. 2: event sets, events and counters")
		out, err := experiments.Fig2GroupMapping("core2", "FLOPS_DP")
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	}
	if want("fig3") {
		section("Fig. 3: likwid-pin mechanism")
		out, err := experiments.Fig3PinMechanism()
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	}
	if want("marker") {
		section("§II-A listing: marker mode FLOPS_DP on Core 2 Quad")
		out, err := experiments.MarkerListing()
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	}
	if want("groups") {
		section("§II-A table: preconfigured event sets")
		out, err := experiments.EventGroupTable("westmereEP")
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	}
	if want("features") {
		section("§II-D listing: likwid-features")
		out, err := experiments.FeaturesListing()
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
	}
	for _, spec := range experiments.StreamFigures() {
		id := fmt.Sprintf("fig%d", 3+figIndex(spec.ID))
		if !want(id) {
			continue
		}
		section(spec.ID + ": " + spec.Caption)
		s := spec
		s.Samples = *samples
		points, err := s.Run()
		if err != nil {
			fail(err)
		}
		fmt.Print(s.Render(points))
	}
	if want("fig11") {
		section("Fig. 11: Jacobi smoother vs problem size")
		points, err := experiments.Fig11(experiments.Fig11Sizes(), *iters)
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.RenderFig11(points))
	}
	if want("table2") {
		section("Table II: uncore measurement of the Jacobi variants")
		rows, err := experiments.TableII()
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.RenderTableII(rows))
	}
	if want("ablations") {
		section("Ablations")
		mux, err := experiments.AblationMultiplex()
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.RenderMultiplex(mux))
		lock, err := experiments.AblationSocketLock()
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.RenderSocketLock(lock))
		pf, err := experiments.AblationPrefetchers()
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.RenderPrefetchers(pf))
		pl, err := experiments.AblationPlacement(6, *samples/2+2)
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.RenderPlacement(pl, 6))
		smt, err := experiments.AblationSMTOrder()
		if err != nil {
			fail(err)
		}
		fmt.Print(experiments.RenderSMTOrder(smt))
	}
}

// figIndex recovers the figure number offset from the spec ID ("Fig. 4").
func figIndex(id string) int {
	var n int
	fmt.Sscanf(id, "Fig. %d", &n)
	return n - 3
}
