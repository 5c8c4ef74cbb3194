package perfctr

import (
	"math/rand"
	"testing"
)

// FuzzCompileExpr: the formula parser must never panic, compiled
// formulas must evaluate without panicking against an empty environment
// (errors are fine), and the compiled Program must match the reference
// evaluator bit for bit, with and without every identifier bound.
func FuzzCompileExpr(f *testing.F) {
	for _, seed := range []string{
		"1.0E-06*(A*2+B)/time",
		"A/B", "-(X)", "((1))", "1e", "*", "", "a b", "1.0E-06*",
		"CPU_CLK_UNHALTED_CORE/clock", "-0*A", "A/(B-B)", "1e308*10/A",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		expr, err := CompileExpr(src)
		if err != nil {
			return
		}
		_, _ = expr.Eval(map[string]float64{})
		_, _ = expr.Eval(map[string]float64{"time": 1, "clock": 2e9})
		vars := expr.Vars()
		env := map[string]float64{}
		for _, v := range vars {
			env[v] = 1
		}
		if _, err := expr.Eval(env); err != nil {
			t.Fatalf("CompileExpr(%q): eval with all vars bound failed: %v", src, err)
		}
		metrics := []Metric{{Name: "f", Formula: src}}
		var events []string
		for _, v := range vars {
			if v != "time" && v != "clock" {
				events = append(events, v)
			}
		}
		rng := rand.New(rand.NewSource(int64(len(src))))
		for _, evs := range [][]string{events, nil} {
			p := NewProgram(evs, metrics)
			for n := 0; n < 8; n++ {
				checkProgram(t, "fuzz", p, metrics, evs, randomRow(rng, p.Width()))
			}
		}
	})
}

// FuzzParseEventList: never panics; accepted specs have nonempty events.
func FuzzParseEventList(f *testing.F) {
	for _, seed := range []string{"A:PMC0,B:PMC1", "A", "", ",,,", "A:B:C"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		specs, err := ParseEventList(s)
		if err != nil {
			return
		}
		for _, spec := range specs {
			if spec.Event == "" {
				t.Fatalf("ParseEventList(%q) accepted empty event name", s)
			}
		}
	})
}
