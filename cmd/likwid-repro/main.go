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
	"io"
	"os"

	"likwid/internal/experiments"
)

// The paper's sample count per STREAM thread count, and the Jacobi sweeps
// per Fig. 11 point.
const (
	defaultSamples = 100
	defaultIters   = 20
)

func main() {
	only := flag.String("only", "", "run a single experiment id")
	samples := flag.Int("samples", defaultSamples, "STREAM samples per thread count")
	iters := flag.Int("iters", defaultIters, "Jacobi iterations per Fig. 11 point")
	flag.Parse()

	if err := run(os.Stdout, *only, *samples, *iters); err != nil {
		fmt.Fprintln(os.Stderr, "likwid-repro:", err)
		os.Exit(1)
	}
}

// run writes the experiments selected by only ("" for all) to w and stops
// at the first one that fails.
func run(w io.Writer, only string, samples, iters int) error {
	want := func(id string) bool { return only == "" || only == id }
	section := func(title string) {
		fmt.Fprintf(w, "\n================ %s ================\n", title)
	}
	if want("fig1") {
		section("Fig. 1 / §II-B: node topology (likwid-topology)")
		for _, arch := range []string{"nehalemEP", "westmereEP"} {
			out, err := experiments.Fig1Topology(arch)
			if err != nil {
				return err
			}
			fmt.Fprint(w, out)
		}
	}
	if want("fig2") {
		section("Fig. 2: event sets, events and counters")
		out, err := experiments.Fig2GroupMapping("core2", "FLOPS_DP")
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
	}
	if want("fig3") {
		section("Fig. 3: likwid-pin mechanism")
		out, err := experiments.Fig3PinMechanism()
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
	}
	if want("marker") {
		section("§II-A listing: marker mode FLOPS_DP on Core 2 Quad")
		out, err := experiments.MarkerListing()
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
	}
	if want("groups") {
		section("§II-A table: preconfigured event sets")
		out, err := experiments.EventGroupTable("westmereEP")
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
	}
	if want("features") {
		section("§II-D listing: likwid-features")
		out, err := experiments.FeaturesListing()
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
	}
	for _, spec := range experiments.StreamFigures() {
		id := fmt.Sprintf("fig%d", 3+figIndex(spec.ID))
		if !want(id) {
			continue
		}
		section(spec.ID + ": " + spec.Caption)
		s := spec
		s.Samples = samples
		points, err := s.Run()
		if err != nil {
			return err
		}
		fmt.Fprint(w, s.Render(points))
	}
	if want("fig11") {
		section("Fig. 11: Jacobi smoother vs problem size")
		points, err := experiments.Fig11(experiments.Fig11Sizes(), iters)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFig11(points))
	}
	if want("table2") {
		section("Table II: uncore measurement of the Jacobi variants")
		rows, err := experiments.TableII()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderTableII(rows))
	}
	if want("ablations") {
		section("Ablations")
		mux, err := experiments.AblationMultiplex()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderMultiplex(mux))
		lock, err := experiments.AblationSocketLock()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderSocketLock(lock))
		pf, err := experiments.AblationPrefetchers()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderPrefetchers(pf))
		pl, err := experiments.AblationPlacement(6, samples/2+2)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderPlacement(pl, 6))
		smt, err := experiments.AblationSMTOrder()
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderSMTOrder(smt))
	}
	return nil
}

// figIndex recovers the figure number offset from the spec ID ("Fig. 4").
func figIndex(id string) int {
	var n int
	fmt.Sscanf(id, "Fig. %d", &n)
	return n - 3
}
