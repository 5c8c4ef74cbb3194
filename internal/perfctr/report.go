package perfctr

import (
	"fmt"
	"math"
	"strings"

	"likwid/internal/cli"
)

// Report renders measurement results as the paper's bordered tables: one
// event table (rows = events, columns = cores) and, when a group is given,
// one metric table with the derived values.  A column's "time" is its
// cycle count over the clock, or the wall time when either is missing.
func Report(r Results, group *GroupDef, clockHz float64) string {
	time := make([]float64, len(r.CPUs))
	cycles, ok := r.Counts["CPU_CLK_UNHALTED_CORE"]
	for i := range time {
		time[i] = r.WallTime
		if ok && clockHz > 0 {
			time[i] = cycles[i] / clockHz
		}
	}
	return ReportTimes(r, group, clockHz, time)
}

// ReportTimes is Report with each column's "time" given by the caller
// (time[i] for column i): the marker API passes its regions' times.
func ReportTimes(r Results, group *GroupDef, clockHz float64, time []float64) string {
	var b strings.Builder
	b.WriteString(eventTable(r))
	if group != nil {
		b.WriteString(metricTable(r, *group, clockHz, time))
	}
	return b.String()
}

func eventTable(r Results) string {
	header := []string{"Event"}
	for _, cpu := range r.CPUs {
		header = append(header, fmt.Sprintf("core %d", cpu))
	}
	t := cli.NewTable(header...)
	for _, ev := range r.Events {
		row := []string{ev}
		for i := range r.CPUs {
			row = append(row, cli.FormatCount(r.Counts[ev][i]))
		}
		t.AddRow(row...)
	}
	return t.String()
}

func metricTable(r Results, g GroupDef, clockHz float64, time []float64) string {
	header := []string{"Metric"}
	for _, cpu := range r.CPUs {
		header = append(header, fmt.Sprintf("core %d", cpu))
	}
	t := cli.NewTable(header...)
	prog := NewProgram(r.Events, g.Metrics)
	vals := make([][]float64, len(r.CPUs)) // per column, per metric
	row := make([]float64, 0, prog.Width())
	for i := range r.CPUs {
		row = row[:0]
		for _, ev := range r.Events {
			row = append(row, r.Counts[ev][i])
		}
		vals[i] = make([]float64, len(g.Metrics))
		prog.Eval(append(row, time[i], clockHz), vals[i])
	}
	for m, mtr := range g.Metrics {
		if prog.Expr(m) == nil {
			continue
		}
		cells := []string{mtr.Name}
		for i := range r.CPUs {
			cell := "n/a" // NaN: the metric names a value with no slot
			if v := vals[i][m]; !math.IsNaN(v) {
				cell = cli.FormatMetric(v)
			}
			cells = append(cells, cell)
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// Header renders the preamble of a likwid-perfCtr run, as in the paper:
//
//	-------------------------------------------------------------
//	CPU type: Intel Core 2 45nm processor
//	CPU clock: 2.83 GHz
//	-------------------------------------------------------------
func Header(cpuName string, clockMHz float64) string {
	var b strings.Builder
	b.WriteString(cli.Rule + "\n")
	fmt.Fprintf(&b, "CPU type:\t%s\n", cpuName)
	fmt.Fprintf(&b, "CPU clock:\t%.2f GHz\n", clockMHz/1000)
	b.WriteString(cli.Rule + "\n")
	return b.String()
}
