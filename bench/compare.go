package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a noise-aware comparison.
const (
	verdictImproved   = "improved"
	verdictSame       = "same"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict compares one (workload, metric) cell of two trajectory files
// against the metric's fixed bound.  A median worse by more than the
// bound is a regression.  Where either side's own run-to-run spread is
// wider than the bound the cell is unresolved rather than unchanged —
// unless every run of one side beats every run of the other, which no
// amount of spread explains away.
func verdict(old, new summary) (string, float64) {
	if old.Median == 0 {
		return verdictUnresolved, 0
	}
	sign := 1.0 // positive change = worse
	if old.Better == "higher" {
		sign = -1
	}
	change := sign * (new.Median - old.Median) / math.Abs(old.Median)
	allBetter, allWorse := separated(old, new, sign > 0)
	noisy := old.Spread > old.Bound || new.Spread > old.Bound
	switch {
	case allWorse && change > old.Bound:
		return verdictRegressed, change
	case allBetter:
		return verdictImproved, change
	case noisy:
		return verdictUnresolved, change
	case change > old.Bound:
		return verdictRegressed, change
	case -change > old.Spread && -change > new.Spread && -change > 0:
		return verdictImproved, change
	}
	return verdictSame, change
}

// separated reports whether every new run is better (or worse) than
// every old run.
func separated(old, new summary, lowerBetter bool) (allBetter, allWorse bool) {
	if len(old.Values) == 0 || len(new.Values) == 0 {
		return false, false
	}
	loOld, hiOld := minMax(old.Values)
	loNew, hiNew := minMax(new.Values)
	if lowerBetter {
		return hiNew < loOld, loNew > hiOld
	}
	return loNew > hiOld, hiNew < loOld
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = vs[0], vs[0]
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

func loadTrajectory(path string) (*trajectory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t trajectory
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &t, nil
}

// compareFiles prints one verdict per (workload, metric) and returns
// the process exit code: 1 when anything regressed.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	old, err := loadTrajectory(oldPath)
	if err == nil {
		var cur *trajectory
		if cur, err = loadTrajectory(newPath); err == nil {
			return compareTrajectories(w, old, cur)
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	return 1
}

func compareTrajectories(w io.Writer, old, cur *trajectory) int {
	if old.Machine != cur.Machine {
		fmt.Fprintf(w, "note: the two files were measured on different machines (%s / %s)\n", old.Machine.CPUModel, cur.Machine.CPUModel)
	}
	code := 0
	for _, wl := range workloads {
		oc, nc := old.Workloads[wl.Name], cur.Workloads[wl.Name]
		if oc == nil || nc == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.Name)
		for _, d := range endToEnd {
			o, okO := oc[d.Name]
			n, okN := nc[d.Name]
			if !okO || !okN {
				continue
			}
			v, change := verdict(o, n)
			if v == verdictRegressed {
				code = 1
			}
			fmt.Fprintf(w, "  %-26s %-10s %14.6g -> %-14.6g %-5s change %+6.1f%% (+ is worse), bound %.1f%%, spread %.1f%% / %.1f%%\n",
				d.Name, v, o.Median, n.Median, d.Unit, 100*change, 100*o.Bound, 100*o.Spread, 100*n.Spread)
		}
	}
	return code
}
