package perfctr

import "likwid/internal/msr"

// Current returns the accumulated counts including the not-yet-harvested
// live counter registers, without disturbing the measurement.  The marker
// API is built on this: region deltas are differences of two Current
// snapshots.
func (c *Collector) Current() Results {
	var r Results
	c.CurrentInto(&r)
	return r
}

// CurrentInto is Current into r, reusing its CPUs, Events and Counts
// storage: a caller sampling in a loop (the monitoring agent) keeps two
// Results, previous and current, and allocates nothing per sample.  r
// must be zero or filled by an earlier CurrentInto of this collector.
func (c *Collector) CurrentInto(r *Results) {
	wall := c.M.Now() - c.startTime
	r.CPUs = append(r.CPUs[:0], c.cpus...)
	r.Events = append(r.Events[:0], c.order...)
	r.WallTime = wall
	r.Scaled = len(c.sets) > 1
	if r.Counts == nil {
		r.Counts = make(map[string][]float64, len(c.order))
	}

	// Copy accumulated counts.
	for name, vals := range c.acc {
		r.Counts[name] = append(r.Counts[name][:0], vals...)
	}

	if c.active {
		set := c.sets[c.current]
		for _, cpu := range c.cpus {
			dev, err := c.M.MSRs.Open(cpu)
			if err != nil {
				continue
			}
			idx := c.cpuIndex(cpu)
			for _, e := range c.fixed {
				if v, err := dev.Read(msr.IA32FixedCtr0 + uint32(e.Slot)); err == nil {
					r.Counts[e.Name][idx] += float64(v)
				}
			}
			for _, e := range set.pmc {
				if v, err := dev.Read(c.pmcReg(e.Slot)); err == nil {
					r.Counts[e.Name][idx] += float64(v)
				}
			}
		}
		for _, leader := range c.leaders {
			dev, err := c.M.MSRs.Open(leader)
			if err != nil {
				continue
			}
			idx := c.cpuIndex(leader)
			for _, e := range set.uncore {
				if v, err := dev.Read(msr.UncPMC + uint32(e.Slot)); err == nil {
					r.Counts[e.Name][idx] += float64(v)
				}
			}
		}
	}

	// Multiplex extrapolation, charging in-flight time to the active set.
	if len(c.sets) > 1 {
		inflight := 0.0
		if c.active {
			inflight = c.M.Now() - c.lastSwitch
		}
		for name, vals := range r.Counts {
			si, ok := c.setOf[name]
			if !ok {
				continue // fixed events run in every set
			}
			active := c.setActive[si]
			if si == c.current {
				active += inflight
			}
			scale := multiplexScale(wall, active)
			for i := range vals {
				vals[i] *= scale
			}
		}
	}
}
