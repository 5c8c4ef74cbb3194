package alert

import (
	"math"
	"slices"
	"strconv"

	"likwid/internal/spec"
)

// The alert rule, one per line in the grammar of internal/spec with
// ':' after the name and a threshold tail:
//
//	name: FN([SOURCE/]METRIC[{LABEL="VALUE",...}][, SCOPE][, ID][, LOOKBACK]) [over LOOKBACK] CMP THRESHOLD for DURATION [every DURATION]
//
//	mem_bw_low: avg(memory_bandwidth_mbytes_s, socket, 30s) < 2000 for 60s
//	flops_flat: rate("DP MFlops/s", node, 10s) <= 0 for 30s every 5s
//	bw_skew:    imbalance(memory_bandwidth_mbytes_s, socket) over 30s > 0.5 for 1m
//	fleet_bw:   avg(*/dp_mflops_s, node, 30s) < 1 for 60s
//	job_bw:     avg(*/dp_mflops_s{job="lbm"}) over 30s < 1 for 60s
//
// FN is avg | min | max | rate | imbalance; SCOPE defaults to node; an
// omitted ID selects every matching id, one alert instance per series,
// and imbalance, which compares the ids, takes none.  An omitted SOURCE
// selects local series only.  An alert watches each series on its own,
// so it takes no "by" clause.  Errors carry line:column positions.

// ParseRule parses one rule line; lineNo is the 1-based line for error
// positions.
func ParseRule(line string, lineNo int) (*Rule, error) {
	s := spec.New("alert", line, lineNo)
	name, _, err := s.Head(':')
	if err != nil {
		return nil, err
	}
	e, err := s.ParseExpr(fnNames[:])
	if err != nil {
		return nil, err
	}
	switch {
	case e.By != nil:
		return nil, s.Errf(e.ByCol, "an alert watches each series on its own; drop the \"by\" clause")
	case e.ID != AllIDs && e.Fn == FnImbalance.String():
		return nil, s.Errf(e.IDCol, "imbalance aggregates across ids; drop the id argument")
	}

	cmp, err := parseCmp(s)
	if err != nil {
		return nil, err
	}
	threshWord, col := s.Word()
	if threshWord == "" {
		return nil, s.Errf(col, "expected threshold number")
	}
	threshold, perr := strconv.ParseFloat(threshWord, 64)
	if perr != nil || math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return nil, s.Errf(col, "bad threshold %q (want a finite number like 2.0e9)", threshWord)
	}
	if kw, col := s.Word(); kw != "for" {
		return nil, s.Errf(col, "expected \"for DURATION\", got %q", kw)
	}
	hold, err := s.Duration("hold (\"for\")", true)
	if err != nil {
		return nil, err
	}
	every, err := s.End()
	if err != nil {
		return nil, err
	}

	return &Rule{Name: name, Fn: Fn(slices.Index(fnNames[:], e.Fn)), Source: e.Source, Metric: e.Metric,
		Matchers: e.Matchers, Scope: e.Scope, ID: e.ID, Lookback: e.Window, Cmp: cmp, Threshold: threshold,
		For: hold.Seconds(), Every: every, Line: lineNo,
	}, nil
}

func parseCmp(s *spec.Scanner) (Cmp, error) {
	s.SkipSpace()
	col := s.Col()
	var cmp Cmp
	switch {
	case s.AcceptRaw('<'):
		cmp = CmpLT
	case s.AcceptRaw('>'):
		cmp = CmpGT
	case s.EOF():
		return 0, s.Errf(col, "expected comparison (<, <=, >, >=)")
	default:
		return 0, s.Errf(col, "expected comparison (<, <=, >, >=), got %q", string(s.Peek()))
	}
	if s.AcceptRaw('=') {
		cmp++ // LT→LE, GT→GE
	}
	return cmp, nil
}

// ParseRules parses a whole rule file (spec.ParseFile): duplicate names
// are rejected, as they would share one "alert/<name>" history series
// and dedup key.
func ParseRules(src string) ([]*Rule, error) {
	var rules []*Rule
	err := spec.ParseFile("alert", src, func(line string, lineNo int) (string, error) {
		r, err := ParseRule(line, lineNo)
		if err != nil {
			return "", err
		}
		rules = append(rules, r)
		return r.Name, nil
	})
	if err != nil {
		return nil, err
	}
	return rules, nil
}
