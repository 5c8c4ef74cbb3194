// Command abstat compares two sets of Go benchmark runs: for every
// benchmark and unit present in both, the median and quartiles of each
// side, the change in the median, the pairs the second side won and a
// two-sided Wilcoxon rank-sum (Mann-Whitney U) p-value.
//
//	go run ./scripts/abstat parent.txt change.txt
//
// Each file holds `go test -bench` output: lines of the form
// "BenchmarkName  N  value unit  value unit ...", one per run.  The
// i-th run of a benchmark in one file is paired with the i-th in the
// other (scripts/abbench.sh alternates them).  A unit ending in "/s"
// is better higher, every other unit better lower.
package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// runs maps "benchmark unit" to its values in file order.
type runs map[string][]float64

func parse(r io.Reader) (runs, []string, error) {
	out, order := runs{}, []string(nil)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("bad value %q in %q", f[i], sc.Text())
			}
			key := f[0] + " " + f[i+1]
			if _, seen := out[key]; !seen {
				order = append(order, key)
			}
			out[key] = append(out[key], v)
		}
	}
	return out, order, sc.Err()
}

// quartiles follows Python's statistics.quantiles(vs, n=4), the
// exclusive method the benchmark harness reports spreads by.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	return at(1), at(2), at(3)
}

// rankSum returns the two-sided p-value of the Wilcoxon rank-sum test
// of a against b: exact when there are no ties and both sides are
// small, else the normal approximation with tie and continuity
// corrections.
func rankSum(a, b []float64) float64 {
	n1, n2 := len(a), len(b)
	type obs struct {
		v    float64
		side int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range a {
		all = append(all, obs{v, 0})
	}
	for _, v := range b {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	// Mid-ranks; ties sums t³-t for the variance correction.
	r1, ties := 0.0, 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		rank := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			if all[k].side == 0 {
				r1 += rank
			}
		}
		t := float64(j - i)
		ties += t*t*t - t
		i = j
	}
	u := r1 - float64(n1*(n1+1))/2
	if ties == 0 && n1 <= 50 && n2 <= 50 {
		return exactU(n1, n2, int(u))
	}
	mean := float64(n1*n2) / 2
	n := float64(n1 + n2)
	sd := math.Sqrt(float64(n1*n2) / 12 * (n + 1 - ties/(n*(n-1))))
	if sd == 0 {
		return 1
	}
	z := (math.Abs(u-mean) - 0.5) / sd
	return math.Min(1, math.Erfc(math.Max(z, 0)/math.Sqrt2))
}

// exactU is the two-sided p-value of U = u for samples of n1 and n2
// without ties: the share of the C(n1+n2, n1) rank assignments with a
// U at least as far from the mean.
func exactU(n1, n2, u int) float64 {
	// ways[m][n][k]: orderings of m and n values with U = k, built up
	// one value at a time (the largest belongs to either side).
	ways := make([][][]float64, n1+1)
	for m := range ways {
		ways[m] = make([][]float64, n2+1)
		for n := range ways[m] {
			ways[m][n] = make([]float64, m*n+1)
			switch {
			case m == 0 || n == 0:
				ways[m][n][0] = 1
			default:
				for k := range ways[m][n] {
					if k >= n {
						ways[m][n][k] += ways[m-1][n][k-n]
					}
					if k <= m*(n-1) {
						ways[m][n][k] += ways[m][n-1][k]
					}
				}
			}
		}
	}
	dist := ways[n1][n2]
	total, lo, hi := 0.0, 0.0, 0.0
	for k, w := range dist {
		total += w
		if k <= u {
			lo += w
		}
		if k >= u {
			hi += w
		}
	}
	return math.Min(1, 2*math.Min(lo, hi)/total)
}

func report(w io.Writer, parent, change runs, order []string) {
	fmt.Fprintf(w, "%-52s %7s %22s %22s %8s %6s %7s\n", "benchmark unit", "n", "parent med [q1,q3]", "change med [q1,q3]", "delta", "wins", "p")
	for _, key := range order {
		a, b := parent[key], change[key]
		if len(b) == 0 {
			continue
		}
		a1, am, a3 := quartiles(a)
		b1, bm, b3 := quartiles(b)
		higher := strings.HasSuffix(key, "/s")
		wins, pairs := 0, min(len(a), len(b))
		for i := 0; i < pairs; i++ {
			if (b[i] < a[i]) != higher && b[i] != a[i] {
				wins++
			}
		}
		delta := "n/a"
		if am != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(bm-am)/am)
		}
		fmt.Fprintf(w, "%-52s %3d/%-3d %22s %22s %8s %2d/%-3d %7.2g\n", key, len(a), len(b),
			fmt.Sprintf("%.4g [%.4g,%.4g]", am, a1, a3), fmt.Sprintf("%.4g [%.4g,%.4g]", bm, b1, b3),
			delta, wins, pairs, rankSum(a, b))
	}
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: abstat PARENT.txt CHANGE.txt")
		os.Exit(2)
	}
	var sides [2]runs
	var order []string
	for i, name := range os.Args[1:] {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r, o, err := parse(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		sides[i] = r
		if i == 0 {
			order = o
		}
	}
	report(os.Stdout, sides[0], sides[1], order)
}
