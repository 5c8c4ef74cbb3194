package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata")

// TestPaperOutputGolden holds likwid-repro's output for the paper's
// measured figures (STREAM Figs. 4-10, Jacobi Fig. 11), Table II and the
// marker listing byte for byte, at the default sample and sweep counts: a
// change to the event engine, the scheduler or the memory model that moves
// one plotted number fails here.  -update rewrites testdata/ID.golden.
func TestPaperOutputGolden(t *testing.T) {
	ids := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table2", "marker"}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			var b strings.Builder
			if err := run(&b, id, defaultSamples, defaultIters); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("likwid-repro -only %s differs from %s (run with -update to accept):\n%s", id, path, got)
			}
		})
	}
}
