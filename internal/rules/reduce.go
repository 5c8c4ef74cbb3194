package rules

import (
	"math"

	"likwid/internal/monitor"
)

// Reducer folds one series' window of points into one number.  It is
// the whole reducer set of the suite: both rule grammars map their
// function names onto it.
type Reducer int

const (
	// Mean is the average of the window's points.
	Mean Reducer = iota
	// Min is the smallest point of the window.
	Min
	// Max is the largest point of the window.
	Max
	// Rate is the per-second slope across the window:
	// (last - first) / (t_last - t_first).
	Rate
	// Presence is 1 for any window that holds data.
	Presence
)

// Reduce applies the reducer to a window; ok is false when the window
// cannot support it (empty, or a rate over a single instant).
func (f Reducer) Reduce(pts []monitor.Point) (float64, bool) {
	if len(pts) == 0 {
		return 0, false
	}
	switch f {
	case Mean:
		sum := 0.0
		for _, p := range pts {
			sum += p.Value
		}
		return sum / float64(len(pts)), true
	case Min:
		v := pts[0].Value
		for _, p := range pts[1:] {
			v = math.Min(v, p.Value)
		}
		return v, true
	case Max:
		v := pts[0].Value
		for _, p := range pts[1:] {
			v = math.Max(v, p.Value)
		}
		return v, true
	case Rate:
		first, last := pts[0], pts[len(pts)-1]
		if last.Time <= first.Time {
			return 0, false
		}
		return (last.Value - first.Value) / (last.Time - first.Time), true
	case Presence:
		return 1, true
	}
	return 0, false
}

// Newest reduces the newest lookback seconds of one series: the window
// ends at the series' own newest point, whose time is returned as at.
// The window is built in buf, the caller's reusable buffer, and the
// buffer to keep is returned whether or not the reduction was possible.
func (f Reducer) Newest(st *monitor.Store, k monitor.Key, lookback float64, buf []monitor.Point) (value, at float64, ok bool, _ []monitor.Point) {
	latest, ok := st.Latest(k)
	if !ok {
		return 0, 0, false, buf
	}
	pts := st.WindowInto(k, latest.Time-lookback, -1, buf)
	if pts == nil {
		return 0, 0, false, buf
	}
	value, ok = f.Reduce(pts)
	return value, latest.Time, ok, pts
}
