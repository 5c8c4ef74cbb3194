package perfctr

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"likwid/internal/hwdef"
)

// Eval is the reference evaluator the Program is held to: a tree walk
// over an environment of event counts and pseudo-variables.  NaN and
// infinities collapse to 0; an identifier missing from env is an error.
func (e *Expr) Eval(env map[string]float64) (float64, error) {
	v, err := evalNode(e.root, env)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, nil
	}
	return v, nil
}

func evalNode(n exprNode, env map[string]float64) (float64, error) {
	switch n := n.(type) {
	case numNode:
		return float64(n), nil
	case varNode:
		v, ok := env[string(n)]
		if !ok {
			return 0, fmt.Errorf("perfctr: formula references unknown value %q", string(n))
		}
		return v, nil
	case negNode:
		v, err := evalNode(n.x, env)
		return -v, err
	case binNode:
		l, err := evalNode(n.l, env)
		if err != nil {
			return 0, err
		}
		r, err := evalNode(n.r, env)
		if err != nil {
			return 0, err
		}
		switch n.op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		case '/':
			if r == 0 {
				return 0, nil
			}
			return l / r, nil
		}
	}
	return 0, fmt.Errorf("perfctr: unknown node %#v", n)
}

// env builds the reference environment of one cpu column of r, the way
// the one-shot report defines it: all event counts plus "time" (seconds
// from the cycle counter, else the wall time) and "clock" (Hz).
func env(r Results, col int, clockHz float64) map[string]float64 {
	env := map[string]float64{"clock": clockHz}
	for name, vals := range r.Counts {
		env[name] = vals[col]
	}
	if cycles, ok := r.Counts["CPU_CLK_UNHALTED_CORE"]; ok && clockHz > 0 {
		env["time"] = cycles[col] / clockHz
	} else {
		env["time"] = r.WallTime
	}
	return env
}

// checkProgram evaluates p on row and holds every metric to the
// reference evaluator over the same values, bit for bit: an unavailable
// metric (NaN) must be exactly one the reference fails on.
func checkProgram(t *testing.T, what string, p *Program, metrics []Metric, events []string, row []float64) {
	t.Helper()
	refEnv := map[string]float64{"time": row[len(events)], "clock": row[len(events)+1]}
	for i, ev := range events {
		refEnv[ev] = row[i]
	}
	out := make([]float64, len(metrics))
	p.Eval(row, out)
	for i, m := range metrics {
		e, err := CompileExpr(m.Formula)
		if err != nil {
			if !math.IsNaN(out[i]) || p.Expr(i) != nil {
				t.Fatalf("%s: %q does not parse but evaluated to %v", what, m.Formula, out[i])
			}
			continue
		}
		want, err := e.Eval(refEnv)
		switch {
		case err != nil && !math.IsNaN(out[i]):
			t.Fatalf("%s: %q = %v, want unavailable (%v)", what, m.Formula, out[i], err)
		case err == nil && math.Float64bits(out[i]) != math.Float64bits(want):
			t.Fatalf("%s: %q = %v (%#x), reference %v (%#x) on row %v",
				what, m.Formula, out[i], math.Float64bits(out[i]), want, math.Float64bits(want), row)
		}
	}
}

// specials are the operand values formulas must survive: signed zeros,
// NaN, both infinities and magnitudes at the edges of float64.
var specials = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300, 1e300, 1, -1}

func randomRow(rng *rand.Rand, width int) []float64 {
	row := make([]float64, width)
	for i := range row {
		switch rng.Intn(4) {
		case 0:
			row[i] = specials[rng.Intn(len(specials))]
		case 1:
			row[i] = float64(rng.Int63n(1 << 40))
		default:
			row[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	return row
}

// TestProgramMatchesExprEval holds the compiled Program of every group on
// every architecture to the reference tree walk, bit for bit, on random
// rows seeded with zeros, NaN, infinities and extreme magnitudes.  The
// row's events are the collector's (mandatory events first) minus one,
// so a formula naming the missing event must come out unavailable.
func TestProgramMatchesExprEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, archName := range hwdef.Names() {
		a, _ := hwdef.Lookup(archName)
		for _, gName := range GroupNames(a) {
			g, err := GroupFor(a, gName)
			if err != nil {
				t.Fatal(err)
			}
			events := append([]string{"INSTR_RETIRED_ANY", "CPU_CLK_UNHALTED_CORE"}, g.Events...)
			metrics := append(g.Metrics, goldenProbe...)
			for _, evs := range [][]string{events, events[:len(events)-1]} {
				p := NewProgram(evs, metrics)
				if p.Width() != len(evs)+2 {
					t.Fatalf("Width = %d, want %d", p.Width(), len(evs)+2)
				}
				for n := 0; n < 200; n++ {
					checkProgram(t, archName+"/"+gName, p, metrics, evs, randomRow(rng, p.Width()))
				}
			}
		}
	}
}

// TestIntervalClamps pins the one interval delta: a nil prev counts from
// zero, a negative increment clamps to 0, and into is reused.
func TestIntervalClamps(t *testing.T) {
	buf := make([]float64, 0, 3)
	got := Interval(buf, []float64{1, 5, 2}, []float64{4, 3, 2})
	if len(got) != 3 || got[0] != 3 || got[1] != 0 || got[2] != 0 || &got[0] != &buf[:1][0] {
		t.Fatalf("Interval = %v (aliased %v), want [3 0 0] in buf", got, &got[0] == &buf[:1][0])
	}
	if got := Interval(nil, nil, []float64{7, -1}); got[0] != 7 || got[1] != 0 {
		t.Fatalf("Interval(nil prev) = %v, want [7 0]", got)
	}
}
