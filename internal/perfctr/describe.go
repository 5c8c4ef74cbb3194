package perfctr

import (
	"fmt"
	"strings"
)

// Describe renders the event-set → hardware-event → counter mapping of this
// collector, the relationship Fig. 2 of the paper illustrates.  Each
// multiplex set prints as one block.
func (c *Collector) Describe() string {
	var b strings.Builder
	if len(c.fixed) > 0 {
		fmt.Fprintln(&b, "fixed counters (always counted):")
		for _, e := range c.fixed {
			fmt.Fprintf(&b, "  FIXC%d <- %s\n", e.Slot, e.Name)
		}
	}
	for i, set := range c.sets {
		if len(c.sets) > 1 {
			fmt.Fprintf(&b, "event set %d (multiplexed round-robin):\n", i)
		} else {
			fmt.Fprintln(&b, "event set:")
		}
		for _, e := range set.pmc {
			fmt.Fprintf(&b, "  PMC%d  <- %s (event %#04x, umask %#02x)\n",
				e.Slot, e.Name, e.Ev.Code, e.Ev.Umask)
		}
		for _, e := range set.uncore {
			fmt.Fprintf(&b, "  UPMC%d <- %s (event %#04x, umask %#02x, socket lock)\n",
				e.Slot, e.Name, e.Ev.Code, e.Ev.Umask)
		}
		if len(set.pmc) == 0 && len(set.uncore) == 0 {
			fmt.Fprintln(&b, "  (fixed counters only)")
		}
	}
	leaders := c.leaders
	if len(leaders) > 0 && c.M.Arch.NumUncore > 0 {
		strs := make([]string, len(leaders))
		for i, l := range leaders {
			strs[i] = fmt.Sprint(l)
		}
		fmt.Fprintf(&b, "socket locks held by cores: %s\n", strings.Join(strs, ", "))
	}
	return b.String()
}
