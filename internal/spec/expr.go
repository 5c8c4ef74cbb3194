package spec

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"likwid/internal/monitor"
)

// The rule grammar both rule kinds share, one rule per line:
//
//	NAME SEP FN(SELECTOR[, SCOPE][, ID][, WINDOW]) [by (DIM, ...)] [over WINDOW] TAIL [every DURATION]
//
// SELECTOR is [SOURCE/]METRIC[{LABEL="VALUE",...}] (Selector and
// Matchers); SCOPE is thread | core | socket | node (default node); ID
// is a non-negative integer; DIM is "source" or a label name.  The
// window is required and given once, either as the last argument or
// after "over".  A kind picks its separator (':' for alerts, '=' for
// recorded rules), its function names, its TAIL and the checks that
// rule out what it cannot evaluate.

// NoID is Expr.ID when the expression names no id: every id of the
// scope matches.
const NoID = -1

// BySource is the "by" dimension grouping per source; every other
// dimension is a label name.
const BySource = "source"

// Expr is one parsed rule expression.
type Expr struct {
	// Fn is the function name, one of the kind's table.
	Fn string
	// Source, Metric and Matchers are the selector (see Selector and
	// Matchers); Scope is ScopeNode unless the expression names one.
	Source   string
	Metric   string
	Matchers []monitor.Label
	Scope    monitor.Scope
	// ID is the selected entity, NoID for all of them.
	ID int
	// Window is the lookback in simulated seconds.
	Window float64
	// By are the grouping dimensions, nil without a "by" clause.
	By []string
	// IDCol and ByCol are the 1-based columns of the id and of the
	// "by" keyword (0 when absent), for a kind's rejections.
	IDCol, ByCol int
}

// Head reads the "NAME SEP" that starts a rule line and returns the
// name and its column.
func (s *Scanner) Head(sep byte) (string, int, error) {
	name, col := s.Word()
	if name == "" {
		return "", col, s.Errf(col, "expected rule name")
	}
	if !validName(name) {
		return "", col, s.Errf(col, "bad rule name %q (letters, digits, '_', '-', '.')", name)
	}
	return name, col, s.Expect(sep, "after the rule name")
}

// ParseExpr reads one expression whose function is one of fns, and
// leaves the scanner at whatever follows it.
func (s *Scanner) ParseExpr(fns []string) (Expr, error) {
	e := Expr{Scope: monitor.ScopeNode, ID: NoID}
	fn, col := s.Word()
	if !slices.Contains(fns, fn) {
		return e, s.Errf(col, "unknown function %q (%s)", fn, strings.Join(fns, ", "))
	}
	e.Fn = fn
	if err := s.Expect('(', "after the function"); err != nil {
		return e, err
	}
	var err error
	if e.Source, e.Metric, col, err = s.Selector(); err != nil {
		return e, err
	}
	if e.Metric == "" {
		return e, s.Errf(col, "expected a metric selector")
	}
	if e.Matchers, err = s.Matchers(); err != nil {
		return e, err
	}
	if err := s.args(&e); err != nil {
		return e, err
	}
	if err := s.Expect(')', "after the arguments"); err != nil {
		return e, err
	}

	s.SkipSpace()
	mark := s.pos
	kw, col := s.Word()
	if kw == "by" {
		e.ByCol = col
		if e.By, err = s.by(); err != nil {
			return e, err
		}
		s.SkipSpace()
		mark = s.pos
		kw, col = s.Word()
	}
	switch {
	case kw == "over" && e.Window != 0:
		return e, s.Errf(col, "window given twice: drop the last argument or the \"over\" clause")
	case kw == "over":
		over, err := s.Duration("window (\"over\")", false)
		e.Window = over.Seconds()
		return e, err
	case e.Window == 0:
		return e, s.Errf(col, "expected \"over DURATION\" or a window argument, got %q", kw)
	}
	s.pos = mark // the word belongs to the kind's tail
	return e, nil
}

// args reads the optional ", SCOPE", ", ID" and ", WINDOW" arguments,
// in that order.  They never read alike: a scope is a name, an id a
// bare integer and a window a duration with its unit.
func (s *Scanner) args(e *Expr) error {
	next := 0 // the first argument still allowed: 0 scope, 1 id, 2 window
	for next < 3 && s.Accept(',') {
		w, col := s.Word()
		if scope, err := monitor.ParseScope(w); err == nil && next == 0 {
			e.Scope, next = scope, 1
			continue
		}
		if n, err := strconv.Atoi(w); err == nil && next < 2 {
			if n < 0 {
				return s.Errf(col, "id must not be negative, got %d", n)
			}
			e.ID, e.IDCol, next = n, col, 2
			continue
		}
		d, err := time.ParseDuration(w)
		switch {
		case err == nil && d > 0:
			e.Window, next = d.Seconds(), 3
		case err != nil && next == 0:
			return s.Errf(col, "bad scope %q (thread, core, socket, node)", w)
		case w == "":
			return s.Errf(col, "expected lookback duration (like 30s)")
		default:
			return s.Errf(col, "bad lookback %q (want a positive duration like 30s)", w)
		}
	}
	return nil
}

// by reads the "(DIM, DIM, ...)" group clause after "by".
func (s *Scanner) by() ([]string, error) {
	if err := s.Expect('(', "after \"by\""); err != nil {
		return nil, err
	}
	var by []string
	for {
		dim, col := s.Word()
		switch {
		case dim == "":
			return nil, s.Errf(col, "expected a grouping dimension (\"source\" or a label name)")
		case dim == BySource: // the key's own dimension
		case !monitor.ValidLabelName(dim):
			return nil, s.Errf(col, "bad grouping label %q (letters, digits, '_'; not starting with a digit)", dim)
		case monitor.ReservedLabelName(dim):
			return nil, s.Errf(col, "grouping dimension %q is reserved; only \"source\" groups by the key itself", dim)
		}
		if slices.Contains(by, dim) {
			return nil, s.Errf(col, "duplicate grouping dimension %q", dim)
		}
		by = append(by, dim)
		if !s.Accept(',') {
			break
		}
	}
	return by, s.Expect(')', "after the grouping dimensions")
}

// End reads the "every DURATION" clause that may close a rule line and
// requires the end of the line after it.
func (s *Scanner) End() (time.Duration, error) {
	if s.EOF() {
		return 0, nil
	}
	if kw, col := s.Word(); kw != "every" {
		return 0, s.Errf(col, "unexpected %q (only \"every DURATION\" may follow)", kw)
	}
	every, err := s.Duration("evaluation (\"every\")", false)
	if err != nil {
		return 0, err
	}
	return every, s.Done()
}

// Done requires that nothing but space is left on the line.
func (s *Scanner) Done() error {
	if s.EOF() {
		return nil
	}
	w, col := s.Word()
	if w == "" {
		col = s.Col()
		w = string(s.Peek())
	}
	return s.Errf(col, "unexpected trailing %q", w)
}

// Render writes the expression back so that ParseExpr reads the same
// Expr.  With positional set it closes the parentheses with the window
// and always writes the scope (avg(bw, node, 30s)); otherwise it leaves
// a node scope out and writes the window after "over" (sum(bw) over
// 30s).
func (e *Expr) Render(positional bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s", e.Fn, RenderSelector(e.Source, e.Metric, e.Matchers))
	if positional || e.Scope != monitor.ScopeNode {
		fmt.Fprintf(&b, ", %s", e.Scope)
	}
	if e.ID != NoID {
		fmt.Fprintf(&b, ", %d", e.ID)
	}
	if positional {
		fmt.Fprintf(&b, ", %s", FormatSeconds(e.Window))
	}
	b.WriteByte(')')
	if len(e.By) > 0 {
		fmt.Fprintf(&b, " by (%s)", strings.Join(e.By, ", "))
	}
	if !positional {
		fmt.Fprintf(&b, " over %s", FormatSeconds(e.Window))
	}
	return b.String()
}

// ParseFile hands every rule line of a lang file to parse: '#'
// comments are stripped and blank lines skipped.  parse returns the
// name the line defines ("" for none); a name defined twice is an
// error, since both rules would write one series.
func ParseFile(lang, src string, parse func(line string, lineNo int) (string, error)) error {
	byName := map[string]int{}
	for i, line := range strings.Split(src, "\n") {
		line = StripComment(line)
		if strings.TrimSpace(line) == "" {
			continue
		}
		name, err := parse(line, i+1)
		if err != nil {
			return err
		}
		if prev, dup := byName[name]; dup && name != "" {
			return fmt.Errorf("%s: line %d: rule %q already defined on line %d", lang, i+1, name, prev)
		}
		byName[name] = i + 1
	}
	return nil
}
