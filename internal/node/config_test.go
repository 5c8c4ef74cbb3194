package node

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"likwid/internal/alert"
	"likwid/internal/derive"
	"likwid/internal/monitor"
)

// writeRules drops a rule file into a temp dir and returns its path.
func writeRules(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "alerts.rules")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseLoadSpec(t *testing.T) {
	if kind, n, err := parseLoadSpec("stream"); err != nil || kind != "stream" || n != 0 {
		t.Errorf("stream = (%q, %d, %v), want (stream, 0, nil)", kind, n, err)
	}
	if kind, n, err := parseLoadSpec("stream:8"); err != nil || kind != "stream" || n != 8 {
		t.Errorf("stream:8 = (%q, %d, %v), want (stream, 8, nil)", kind, n, err)
	}
	if _, _, err := parseLoadSpec("idle"); err != nil {
		t.Errorf("idle = %v, want nil", err)
	}
}

func TestStaleHorizonClearsAdaptiveCap(t *testing.T) {
	if got := staleHorizon(0); got != 5*time.Minute {
		t.Errorf("staleHorizon(0) = %v, want 5m", got)
	}
	if got := staleHorizon(time.Minute); got != 5*time.Minute {
		t.Errorf("staleHorizon(1m) = %v, want the 5m floor", got)
	}
	// A stretch cap above the floor pushes the horizon out: a healthy
	// static series sampled every 10 m must not look stale.
	if got := staleHorizon(10 * time.Minute); got != 40*time.Minute {
		t.Errorf("staleHorizon(10m) = %v, want 40m", got)
	}
}

// TestReloadRulesAtomic pins the hot-reload contract: a good edit swaps
// the rule set, any bad edit (parse error, empty file, missing file) is
// rejected whole and the running rules stay live.
func TestReloadRulesAtomic(t *testing.T) {
	path := writeRules(t, "old: avg(bw, node, 10s) < 1 for 0s\n")
	rules, err := alert.ParseRules("old: avg(bw, node, 10s) < 1 for 0s")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := alert.NewEngine(alert.Options{Store: monitor.NewStore(8)}, rules)
	if err != nil {
		t.Fatal(err)
	}

	// Good edit: swapped.
	if err := os.WriteFile(path, []byte("new_a: avg(bw, node, 10s) < 1 for 0s\nnew_b: max(bw, node, 10s) > 9 for 0s\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := reloadRules(engine, path)
	if err != nil || n != 2 {
		t.Fatalf("reloadRules = (%d, %v), want (2, nil)", n, err)
	}
	if got := engine.Rules(); len(got) != 2 || got[0].Name != "new_a" {
		t.Fatalf("rules after reload = %+v, want new_a/new_b", got)
	}

	// Bad edits: rejected atomically, the two rules stay live.
	for name, content := range map[string]string{
		"parse error": "broken: avg(bw, node) < 1 for 0s\n",
		"empty file":  "# nothing but comments\n",
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := reloadRules(engine, path); err == nil {
			t.Errorf("%s: reloadRules succeeded, want rejection", name)
		}
		if got := engine.Rules(); len(got) != 2 || got[0].Name != "new_a" {
			t.Errorf("%s: rules changed to %+v, want the old set kept", name, got)
		}
	}
	if _, err := reloadRules(engine, filepath.Join(t.TempDir(), "missing.rules")); err == nil {
		t.Error("missing file: reloadRules succeeded, want rejection")
	}
}

// TestReloadDeriveAtomic pins the derive hot-reload contract, the twin
// of TestReloadRulesAtomic: a good edit swaps rules and returns the new
// routes, any bad edit is rejected whole.
func TestReloadDeriveAtomic(t *testing.T) {
	path := writeRules(t, "old = sum(bw) over 30s\n")
	rules, routes, err := derive.ParseFile("old = sum(bw) over 30s")
	if err != nil || len(routes) != 0 {
		t.Fatal(err)
	}
	engine, err := derive.NewEngine(derive.Options{Store: monitor.NewStore(8)}, rules)
	if err != nil {
		t.Fatal(err)
	}

	// Good edit: rules swapped, routes returned.
	next := "new_a = sum(bw) over 30s\nroute rename */BW -> bw\n"
	if err := os.WriteFile(path, []byte(next), 0o644); err != nil {
		t.Fatal(err)
	}
	n, newRoutes, err := reloadDerive(engine, path)
	if err != nil || n != 1 || len(newRoutes) != 1 {
		t.Fatalf("reloadDerive = (%d, %v, %v), want (1, one route, nil)", n, newRoutes, err)
	}
	if got := engine.Rules(); len(got) != 1 || got[0].Name != "new_a" {
		t.Fatalf("rules after reload = %+v, want new_a", got)
	}

	// Bad edits: rejected atomically.
	for name, content := range map[string]string{
		"parse error": "broken = frob(bw) over 30s\n",
		"empty file":  "# nothing\n",
	} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := reloadDerive(engine, path); err == nil {
			t.Errorf("%s: reloadDerive succeeded, want rejection", name)
		}
		if got := engine.Rules(); len(got) != 1 || got[0].Name != "new_a" {
			t.Errorf("%s: rules changed to %+v, want the old set kept", name, got)
		}
	}
	if _, _, err := reloadDerive(engine, filepath.Join(t.TempDir(), "missing.rules")); err == nil {
		t.Error("missing file: reloadDerive succeeded, want rejection")
	}
}
