package monitor

import (
	"sort"
	"time"
)

// Downsampler is a sink decorator for federation hops: it averages each
// series into fixed windows and forwards one sample per window, stamped
// at the window start — CompactMean semantics applied on the wire, so a
// rack receiver can forward its node feeds upward at, say, 1/10th the
// point rate and the cluster root stores the coarse tier without ever
// seeing the fine one.  Each series runs on a depth-1 tierRing, so the
// store's tiers decide which window a point falls in, when a window
// closes and what a late point does: it folds into the open window
// rather than resurrecting a closed one — a forwarding hop is a lossy
// tier by design, not a store.  Like every sink it is driven by a
// single dispatcher goroutine.
type Downsampler struct {
	tier Tier
	next Sink
	open map[Key]*tierRing
}

// NewDownsampler wraps next, averaging each series into every-sized
// windows before forwarding.  every <= 0 returns next unwrapped.
func NewDownsampler(every time.Duration, next Sink) Sink {
	if every <= 0 {
		return next
	}
	return &Downsampler{tier: Tier{Resolution: every.Seconds(), Capacity: 1}, next: next, open: make(map[Key]*tierRing)}
}

// Name implements Sink.
func (d *Downsampler) Name() string { return "downsample(" + d.next.Name() + ")" }

// Write folds the batch into the open windows and forwards every window
// the batch's samples have moved past.
func (d *Downsampler) Write(b Batch) error {
	var out []Sample
	for _, sm := range b.Samples {
		k := sm.Key()
		t := d.open[k]
		if t == nil {
			t = newTierRing(d.tier)
			d.open[k] = t
		}
		seals := t.seals
		t.absorb(Point{Time: sm.Time, Value: sm.Value})
		if t.seals != seals {
			out = append(out, windowSample(k, t))
		}
	}
	if len(out) == 0 {
		return nil
	}
	return d.next.Write(Batch{Collector: b.Collector, Time: b.Time, Samples: out})
}

// windowSample renders a series' just-sealed window as one sample.
func windowSample(k Key, t *tierRing) Sample {
	w := t.ring.at(0)
	return Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope, ID: k.ID, Labels: k.Labels,
		Time: w.Start, Value: w.Avg}
}

// Close flushes every open window downstream in key order, then closes
// the wrapped sink — the graceful-drain path: a receiver draining on
// SIGTERM forwards its partial windows instead of dropping them.  The
// flush batch is stamped with the newest sample time seen.
func (d *Downsampler) Close() error {
	keys := make([]Key, 0, len(d.open))
	for k, t := range d.open {
		if t.open && t.count > 0 {
			keys = append(keys, k)
		}
	}
	// Map iteration must not decide the wire order two runs of the same
	// shutdown produce.
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	var samples []Sample
	var last float64
	for _, k := range keys {
		t := d.open[k]
		last = max(last, t.lastT)
		t.seal()
		samples = append(samples, windowSample(k, t))
	}
	var firstErr error
	if len(samples) > 0 {
		firstErr = d.next.Write(Batch{Collector: "downsample/flush", Time: last, Samples: samples})
	}
	if err := d.next.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
