package marker

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"likwid/internal/machine"
	"likwid/internal/perfctr"
	"likwid/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenWork touches every canonical core event and, through its memory
// traffic, the uncore line events, so every group's formulas see nonzero
// operands.
var goldenWork = machine.PerElem{
	Cycles: 1.5,
	Counts: machine.Counts{
		machine.EvInstr: 3, machine.EvFlopsPackedDP: 1, machine.EvFlopsScalarDP: 0.5,
		machine.EvFlopsPackedSP: 0.25, machine.EvFlopsScalarSP: 0.125,
		machine.EvLoads: 1, machine.EvStores: 0.5, machine.EvBranches: 0.2,
		machine.EvBranchMisses: 0.01, machine.EvTLBMisses: 0.001,
		machine.EvL1LinesIn: 0.375, machine.EvL1LinesOut: 0.125,
		machine.EvL2LinesIn: 0.375, machine.EvL2LinesOut: 0.125,
	},
	MemReadBytes: 16, MemWriteBytes: 8, Streams: 3, Vector: true,
}

// TestReportGolden pins the marker report of every group on three
// architectures byte for byte: two regions on two threads, one of them
// entered twice, plus hand-built metrics for "n/a" (a name with no slot)
// and a zero divisor.
func TestReportGolden(t *testing.T) {
	for _, arch := range []string{"core2", "westmereEP", "shanghai"} {
		t.Run(arch, func(t *testing.T) {
			m, err := machine.NewNamed(arch, machine.Options{Policy: sched.PolicySpread, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, name := range perfctr.GroupNames(m.Arch) {
				g, err := perfctr.GroupFor(m.Arch, name)
				if err != nil {
					t.Fatal(err)
				}
				cpus := []int{0, 1, m.OS.NumCPUs() - 1}
				var specs []perfctr.EventSpec
				for _, ev := range g.Events {
					specs = append(specs, perfctr.EventSpec{Event: ev})
				}
				col, err := perfctr.NewCollector(m, cpus, specs, perfctr.Options{Multiplex: true})
				if err != nil {
					t.Fatal(err)
				}
				if err := col.Start(); err != nil {
					t.Fatal(err)
				}
				mk, err := New(col, m.Arch.ClockHz(), 2)
				if err != nil {
					t.Fatal(err)
				}
				ids := []int{mk.RegisterRegion("Init"), mk.RegisterRegion("Sweep")}
				for round, thread := range []int{0, 1, 0} {
					cpu := cpus[2*thread]
					task := m.OS.Spawn(fmt.Sprintf("w%d", round), nil)
					if err := m.OS.Pin(task, cpu); err != nil {
						t.Fatal(err)
					}
					if err := mk.StartRegion(thread, cpu); err != nil {
						t.Fatal(err)
					}
					m.RunPhase([]*machine.ThreadWork{{Task: task, Elems: 2e6 * float64(round+1), PerElem: goldenWork}}, 0)
					if err := mk.StopRegion(thread, cpu, ids[round%2]); err != nil {
						t.Fatal(err)
					}
					m.OS.Exit(task)
				}
				if err := col.Stop(); err != nil {
					t.Fatal(err)
				}
				g.Metrics = append(g.Metrics,
					perfctr.Metric{Name: "unmeasured", Formula: "NOT_AN_EVENT*2"},
					perfctr.Metric{Name: "zero divisor", Formula: "INSTR_RETIRED_ANY/(clock-clock)"},
					perfctr.Metric{Name: "negated rate", Formula: "-INSTR_RETIRED_ANY/time"})
				fmt.Fprintf(&b, "Group: %s\n", g.Name)
				b.WriteString(mk.Report(&g))
			}
			path := filepath.Join("testdata", "report_"+arch+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if b.String() != string(want) {
				t.Errorf("%s differs from the golden file (run with -update to accept):\n%s", path, b.String())
			}
		})
	}
}
