// Command bench is the repo's benchmark: five workloads that drive the
// real layers through their public functions, every end-to-end metric
// by name with its unit, correctness oracles, and — on -trace 1 —
// spans around each call into a layer, from which the per-layer
// numbers are derived.  See README.md in this directory.
//
//	go run ./bench -workload fleet-steady -seed 1 -seconds 10 -trace 0
//	go run ./bench -all -runs 10 -out bench/results/BENCH_11.json
//	go run ./bench -compare OLD.json NEW.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase")
		trace    = flag.Int("trace", 0, "1 = traced rerun: spans, per-layer metrics, trace_overhead_frac")
		all      = flag.Bool("all", false, "run every workload -runs times, a fresh process each, and summarise (medians, quartiles)")
		runs     = flag.Int("runs", 10, "runs per workload with -all, each on its own seed")
		out      = flag.String("out", "", "with -all: write the trajectory point (BENCH_<pr>.json) here")
		compare  = flag.Bool("compare", false, "compare two trajectory files: -compare OLD.json NEW.json")
		state    = flag.String("state", filepath.Join(".bench_build", "state"), "scratch directory for WAL and snapshot state")
		results  = flag.String("results", filepath.Join("bench", "results"), "directory trace files are written to")
		gated    = flag.Bool("gated", false, "with -all: only the workloads BENCHMARK.json lists, as the driver runs them")
		every    = flag.Bool("every", false, "put every end-to-end metric in the result line, not only the gated ones (-all runs its children so)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fail("usage: bench -compare OLD.json NEW.json")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	dir := filepath.Join(*state, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: *seed, seconds: *seconds, dir: dir}

	if *all {
		return runAll(cfg, *runs, *trace == 1, *gated, *out, *results)
	}
	if *workload == "" {
		return fail("missing -workload (one of %s), -all or -compare", strings.Join(workloadNames(), ", "))
	}
	var res *outcome
	var err error
	if *trace == 1 {
		res, err = runTraced(*workload, cfg, filepath.Join(*results, "trace-"+*workload+".json"))
	} else {
		res, err = runWorkload(*workload, cfg)
	}
	if err != nil {
		return fail("%v", err)
	}
	// A failed oracle is reported in the result line (correct: false);
	// the exit code stays 0 whenever a result was printed.
	printOutcome(res)
	return printResultLine(res, *every)
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	return 1
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// fingerprint records the machine a number was measured on.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	OS         string `json:"os"`
}

func machineFingerprint() fingerprint {
	fp := fingerprint{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH, CPUModel: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
				fp.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return fp
}

// printOutcome is the human-readable report: every metric by name with
// its unit and sample count, the oracle verdicts, and on a traced run
// the busy-share column and the stage sum next to freshness.
func printOutcome(res *outcome) {
	fp := machineFingerprint()
	fmt.Printf("workload %s  seed %d  nproc %d  GOMAXPROCS %d  %s  %s\n",
		res.Workload, res.Seed, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.CPUModel)
	if res.EndToEnd != nil {
		fmt.Println("end-to-end (tracing off):")
		for _, d := range endToEnd {
			gate := "      "
			if d.Gated {
				gate = "gated "
			}
			fmt.Printf("  %-26s %14.6g %-5s n=%-6d %sfrom %s\n", d.Name, res.EndToEnd[d.Name], d.Unit,
				res.Counts[d.Name], gate, sourceOf(res.Workload, d.Name))
		}
	}
	if res.PerLayer != nil {
		fmt.Println("per-layer (traced run):")
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "busy.") {
				continue
			}
			fmt.Printf("  %-40s %14.6g %s\n", d.Name, res.PerLayer[d.Name], d.Unit)
		}
		fmt.Println("busy share by layer:")
		for _, l := range layers {
			fmt.Printf("  %-12s %6.1f %%\n", l, 100*res.PerLayer["busy."+l])
		}
		if sum := res.PerLayer["fleet.stage_sum_ms"]; sum > 0 {
			fmt.Printf("stage sum: tick_lag + dispatch.wait + push.accept + forward.wait + forward.post_rtt = %.3f ms; freshness p50 of the same pass = %.3f ms\n",
				sum, res.PerLayer["fleet.freshness_p50_ms"])
		}
	}
	fmt.Printf("operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("ORACLE FAILED: %s\n", f)
	}
}

// printResultLine prints the driver's contract line: one JSON object,
// the last line of standard output, holding exactly the metrics
// BENCHMARK.json lists (the gated end-to-end ones, or every per-layer one).
func printResultLine(res *outcome, every bool) int {
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if res.PerLayer != nil {
		for _, d := range perLayer {
			line.Metrics[d.Name] = metricValue{res.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			if d.Gated || every {
				line.Metrics[d.Name] = metricValue{res.EndToEnd[d.Name], d.Unit}
			}
		}
	}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(data))
	return 0
}

// ---- -all: the trajectory point -------------------------------------------

// summary is one (workload, metric) cell of a trajectory file.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3 - q1) / median
	Values []float64 `json:"values"`
}

// trajectory is a BENCH_<pr>.json file.
type trajectory struct {
	Claim     *string                       `json:"claim"` // this file claims no gain
	Machine   fingerprint                   `json:"machine"`
	Seconds   float64                       `json:"run_seconds"`
	Runs      int                           `json:"runs"`
	Workloads map[string]map[string]summary `json:"workloads"`
	PerLayer  map[string]map[string]float64 `json:"per_layer,omitempty"`
}

// resultLine is the driver's contract line: printed last by every run,
// parsed back by -all from its child runs.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChild runs one workload the way the driver does — a fresh process
// per run — and parses the last line of its output.
func runChild(workload string, seed int64, seconds float64, trace int, state, results string) (*resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-state", state, "-results", results, "-every")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

// runAll measures a trajectory point the way the driver measures the
// benchmark: `runs` fresh processes per workload, each on its own seed.
func runAll(cfg runConfig, runs int, traced, gatedOnly bool, outPath, resultsDir string) int {
	traj := trajectory{
		Machine: machineFingerprint(), Seconds: cfg.seconds, Runs: runs,
		Workloads: map[string]map[string]summary{}, PerLayer: map[string]map[string]float64{},
	}
	code := 0
	for _, w := range workloads {
		if gatedOnly && !w.Gated {
			continue
		}
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			res, err := runChild(w.Name, cfg.seed+int64(r), cfg.seconds, 0, cfg.dir, resultsDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if !res.Correct {
				code = 2
			}
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], res.Metrics[d.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d done (correct=%v)\n", w.Name, r+1, runs, res.Correct)
		}
		cells := map[string]summary{}
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			cells[d.Name] = summary{Unit: d.Unit, Better: d.Better, Bound: d.Bound,
				Median: q2, Q1: q1, Q3: q3, Spread: spread(values[d.Name]), Values: values[d.Name]}
		}
		traj.Workloads[w.Name] = cells
		if traced {
			res, err := runChild(w.Name, cfg.seed, cfg.seconds, 1, cfg.dir, resultsDir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if !res.Correct {
				code = 2
			}
			layer := map[string]float64{}
			for name, v := range res.Metrics {
				layer[name] = v.Value
			}
			traj.PerLayer[w.Name] = layer
		}
	}
	printTrajectory(traj)
	if outPath != "" {
		data, err := json.MarshalIndent(traj, "", "  ")
		if err == nil {
			err = os.WriteFile(outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

func printTrajectory(t trajectory) {
	fmt.Printf("machine: nproc %d GOMAXPROCS %d %s %s\n", t.Machine.NProc, t.Machine.GOMAXPROCS, t.Machine.GoVersion, t.Machine.CPUModel)
	for _, w := range workloads {
		cells, ok := t.Workloads[w.Name]
		if !ok {
			continue
		}
		fmt.Printf("%s (%d runs of %gs)\n", w.Name, t.Runs, t.Seconds)
		for _, d := range endToEnd {
			c := cells[d.Name]
			flag := ""
			if d.Gated && w.Gated && d.Name != "setup_s" && c.Spread > d.Bound/3 {
				flag = "  <- gated, spread above a third of the bound"
			}
			fmt.Printf("  %-26s median %14.6g %-5s q1 %12.6g q3 %12.6g spread %6.2f%% bound %5.1f%%%s\n",
				d.Name, c.Median, d.Unit, c.Q1, c.Q3, 100*c.Spread, 100*d.Bound, flag)
		}
	}
	if len(t.PerLayer) == 0 {
		return
	}
	var ran []workloadDef
	for _, w := range workloads {
		if _, ok := t.PerLayer[w.Name]; ok {
			ran = append(ran, w)
		}
	}
	// The layer x workload busy-share matrix: "does most work here,
	// none there", as numbers.
	fmt.Printf("\nbusy share (%%) %-10s", "")
	for _, w := range ran {
		fmt.Printf(" %15s", w.Name)
	}
	fmt.Println()
	for _, l := range layers {
		fmt.Printf("  %-22s", l)
		for _, w := range ran {
			fmt.Printf(" %15.1f", 100*t.PerLayer[w.Name]["busy."+l])
		}
		fmt.Println()
	}
	names := make([]string, 0, len(perLayer))
	for _, d := range perLayer {
		if !strings.HasPrefix(d.Name, "busy.") {
			names = append(names, d.Name)
		}
	}
	sort.Strings(names)
	fmt.Printf("\nper-layer %-29s", "")
	for _, w := range ran {
		fmt.Printf(" %15s", w.Name)
	}
	fmt.Println()
	for _, n := range names {
		fmt.Printf("  %-38s", n)
		for _, w := range ran {
			fmt.Printf(" %15.5g", t.PerLayer[w.Name][n])
		}
		fmt.Println()
	}
}
