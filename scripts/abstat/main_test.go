package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(vs, n=4) in Python 3.
	for _, c := range []struct {
		vs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.5, 2.2, 9.0, 4.4}, [3]float64{1.35, 3.1, 6.7}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.vs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v %v %v, want %v", c.vs, q1, q2, q3, c.want)
			}
		}
	}
}

func TestRankSum(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b []float64
		want float64
	}{
		// Exact: 1 of the C(6,3) = 20 orderings per tail.
		{"separated 3x3", []float64{4, 5, 6}, []float64{1, 2, 3}, 0.1},
		{"separated 10x10", []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20},
			[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.0 / 184756},
		// U = 3 of 9 on 3x3: P(U <= 3) = 7/20.
		{"interleaved 3x3", []float64{1, 2, 6}, []float64{3, 4, 5}, 0.7},
		// Ties: U = 4.5, mean 12.5, tie-corrected variance 22.5,
		// continuity-corrected z = 7.5/sqrt(22.5).
		{"tied 5x5", []float64{1, 2, 3, 4, 5}, []float64{3, 4, 5, 6, 7}, math.Erfc(7.5 / math.Sqrt(22.5) / math.Sqrt2)},
		{"all equal", []float64{1, 1, 1}, []float64{1, 1}, 1},
	} {
		if got := rankSum(c.a, c.b); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: p = %v, want %v", c.name, got, c.want)
		}
		if got, back := rankSum(c.a, c.b), rankSum(c.b, c.a); math.Abs(got-back) > 1e-12 {
			t.Errorf("%s: p depends on the side order: %v vs %v", c.name, got, back)
		}
	}
}

func TestReportPairsRuns(t *testing.T) {
	parent, order, err := parse(strings.NewReader(`goos: linux
BenchmarkX/warm-2   	 100	 200 ns/op	 50.0 MB/s	 0 allocs/op
PASS
BenchmarkX/warm-2   	 100	 210 ns/op	 48.0 MB/s	 0 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	change, _, err := parse(strings.NewReader(`BenchmarkX/warm-2 100 100 ns/op 90 MB/s 0 allocs/op
BenchmarkX/warm-2 100 220 ns/op 40 MB/s 0 allocs/op
`))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	report(&out, parent, change, order)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("report has %d lines, want a header and 3 units:\n%s", len(lines), out.String())
	}
	for i, want := range []string{"ns/op", "MB/s", "allocs/op"} {
		if f := strings.Fields(lines[i+1]); f[1] != want || f[len(f)-2] != map[int]string{0: "1/2", 1: "1/2", 2: "0/2"}[i] {
			t.Errorf("line %q: want unit %s and its pairs won", lines[i+1], want)
		}
	}
}
