package perfctr

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"likwid/internal/machine"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenArches are the architectures the report goldens pin: a Core 2
// (fixed counters, no uncore), a Westmere EP (fixed counters and uncore
// socket locks) and a Shanghai (AMD: mandatory events on programmable
// counters).
var goldenArches = []string{"core2", "westmereEP", "shanghai"}

// goldenWork is a per-element cost vector touching every canonical
// core event and, through its memory traffic, the uncore line events,
// so every group's formulas see nonzero operands.
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

// goldenProbe is a hand-built metric list appended to every group in the
// goldens: a name with no slot renders "n/a", and a zero divisor 0.
var goldenProbe = []Metric{
	{"unmeasured", "NOT_AN_EVENT*2"},
	{"zero divisor", "INSTR_RETIRED_ANY/(clock-clock)"},
	{"negated rate", "-INSTR_RETIRED_ANY/time"},
}

// checkGolden compares got against testdata/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden file (run with -update to accept):\n%s", name, got)
	}
}

// TestReportGolden pins the one-shot report (event and metric tables) of
// every group on three architectures, plus one timeline rendering, byte
// for byte.
func TestReportGolden(t *testing.T) {
	for _, arch := range goldenArches {
		t.Run(arch, func(t *testing.T) {
			m := newMachine(t, arch)
			var b strings.Builder
			for _, name := range GroupNames(m.Arch) {
				g, err := GroupFor(m.Arch, name)
				if err != nil {
					t.Fatal(err)
				}
				cpus := []int{0, 1, m.OS.NumCPUs() - 1}
				var specs []EventSpec
				for _, ev := range g.Events {
					specs = append(specs, EventSpec{Event: ev})
				}
				col, err := NewCollector(m, cpus, specs, Options{Multiplex: true})
				if err != nil {
					t.Fatal(err)
				}
				if err := col.Start(); err != nil {
					t.Fatal(err)
				}
				tl, err := NewTimeline(col, 0.002)
				if err != nil {
					t.Fatal(err)
				}
				var work []*machine.ThreadWork
				for i, cpu := range []int{0, cpus[2]} {
					task := m.OS.Spawn(fmt.Sprintf("w%d", i), nil)
					if err := m.OS.Pin(task, cpu); err != nil {
						t.Fatal(err)
					}
					work = append(work, &machine.ThreadWork{Task: task, Elems: 4e6 * float64(i+1), PerElem: goldenWork})
				}
				m.RunPhase(work, 0)
				if err := col.Stop(); err != nil {
					t.Fatal(err)
				}
				tl.Stop()
				for _, w := range work {
					m.OS.Exit(w.Task)
				}
				g.Metrics = append(g.Metrics, goldenProbe...)
				fmt.Fprintf(&b, "Group: %s\n", g.Name)
				b.WriteString(Report(col.Read(), &g, m.Arch.ClockHz()))
				out, err := tl.RenderTimeline(col.EventNames()[len(col.EventNames())-1])
				if err != nil {
					t.Fatal(err)
				}
				b.WriteString(out)
			}
			checkGolden(t, "report_"+arch+".golden", b.String())
		})
	}
}
