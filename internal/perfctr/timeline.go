package perfctr

import (
	"fmt"
	"strings"

	"likwid/internal/stats"
)

// Timeline mode: time-resolved counter measurement, the -d option the
// LIKWID suite grew after the paper.  A slice hook samples the running
// collector every interval of simulated time and stores per-interval
// deltas, turning the wrapper's single summary into a series — useful for
// watching a workload's phases without marker instrumentation.

// TimelinePoint is one sampling interval.
type TimelinePoint struct {
	// Time is the simulated timestamp at the end of the interval.
	Time float64
	// Deltas are per-event per-cpu-column count increments within the
	// interval.
	Deltas map[string][]float64
}

// Timeline samples a collector at a fixed simulated-time interval.
type Timeline struct {
	col      *Collector
	interval float64
	lastTime float64
	last     Results
	points   []TimelinePoint
	active   bool
}

// NewTimeline attaches a sampler to a (started or about-to-start)
// collector; interval is simulated seconds (default 10 ms).
func NewTimeline(col *Collector, interval float64) (*Timeline, error) {
	if interval <= 0 {
		interval = 0.010
	}
	tl := &Timeline{col: col, interval: interval, active: true}
	tl.last = col.Current()
	tl.lastTime = col.M.Now()
	col.M.AddSliceHook(tl.hook)
	return tl, nil
}

func (tl *Timeline) hook(now float64) {
	if !tl.active || now-tl.lastTime < tl.interval {
		return
	}
	cur := tl.col.Current()
	point := TimelinePoint{Time: now, Deltas: map[string][]float64{}}
	for ev, vals := range cur.Counts {
		point.Deltas[ev] = Interval(nil, tl.last.Counts[ev], vals)
	}
	tl.points = append(tl.points, point)
	tl.last = cur
	tl.lastTime = now
}

// Stop detaches the sampler (the hook stays registered but inert).
func (tl *Timeline) Stop() { tl.active = false }

// Points returns the recorded intervals.
func (tl *Timeline) Points() []TimelinePoint { return tl.points }

// Series extracts one event's per-interval totals (summed over the
// measured cpus), e.g. the memory-bandwidth trace of a run.
func (tl *Timeline) Series(event string) ([]float64, error) {
	found := false
	for _, ev := range tl.col.EventNames() {
		if ev == event {
			found = true
		}
	}
	if !found {
		return nil, fmt.Errorf("perfctr: timeline has no event %q", event)
	}
	out := make([]float64, len(tl.points))
	for i, p := range tl.points {
		var sum float64
		for _, v := range p.Deltas[event] {
			sum += v
		}
		out[i] = sum
	}
	return out, nil
}

// Summary returns the box-plot statistics of one event's per-interval
// totals (summed over the measured cpus) — the same stats.Summarize the
// experiment drivers and the monitoring agent's aggregator use, so the
// one-shot and continuous paths report distributions identically.
func (tl *Timeline) Summary(event string) (stats.Summary, error) {
	series, err := tl.Series(event)
	if err != nil {
		return stats.Summary{}, err
	}
	return stats.Summarize(series), nil
}

// RenderTimeline prints per-interval rows of one event per cpu column.
func (tl *Timeline) RenderTimeline(event string) (string, error) {
	if _, err := tl.Series(event); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline of %s (interval %.3f s)\n", event, tl.interval)
	fmt.Fprintf(&b, "%10s", "t[s]")
	for _, cpu := range tl.col.CPUs() {
		fmt.Fprintf(&b, " %12s", fmt.Sprintf("core %d", cpu))
	}
	fmt.Fprintln(&b)
	for _, p := range tl.points {
		fmt.Fprintf(&b, "%10.3f", p.Time)
		for i := range tl.col.CPUs() {
			fmt.Fprintf(&b, " %12.0f", p.Deltas[event][i])
		}
		fmt.Fprintln(&b)
	}
	if sum, err := tl.Summary(event); err == nil && sum.N > 0 {
		fmt.Fprintf(&b, "per-interval totals: min=%.0f median=%.0f max=%.0f (n=%d)\n",
			sum.Min, sum.Median, sum.Max, sum.N)
	}
	return b.String(), nil
}
