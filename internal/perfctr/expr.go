package perfctr

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
)

// The derived-metric formula engine.  Group metrics are arithmetic over
// event counts and the pseudo-variables "time" (the measured interval in
// seconds, defined per caller: see Program) and "clock" (core clock in
// Hz), e.g.
//
//	1.0E-06*(FP_COMP_OPS_EXE_SSE_FP_PACKED*2+FP_COMP_OPS_EXE_SSE_FP_SCALAR)/time
//
// The grammar is a conventional precedence-climbing expression language:
//
//	expr   = term  { ("+"|"-") term }
//	term   = unary { ("*"|"/") unary }
//	unary  = "-" unary | primary
//	primary= number | identifier | "(" expr ")"
//
// Identifiers are event names ([A-Za-z_][A-Za-z0-9_]*); numbers accept
// scientific notation (1.0E-06).

// exprNode is one node of a parsed formula.  A formula is evaluated only
// through its compiled Program form.
type exprNode interface {
	// compile returns the node as a closure over a Program row, or nil
	// when it names an identifier without a slot.
	compile(slots map[string]int) func(row []float64) float64
}

type numNode float64

func (n numNode) compile(map[string]int) func([]float64) float64 {
	return func([]float64) float64 { return float64(n) }
}

type varNode string

func (v varNode) compile(slots map[string]int) func([]float64) float64 {
	i, ok := slots[string(v)]
	if !ok {
		return nil
	}
	return func(row []float64) float64 { return row[i] }
}

type binNode struct {
	op   byte
	l, r exprNode
}

func (b binNode) compile(slots map[string]int) func([]float64) float64 {
	l, r := b.l.compile(slots), b.r.compile(slots)
	if l == nil || r == nil {
		return nil
	}
	switch b.op {
	case '+':
		return func(row []float64) float64 { return l(row) + r(row) }
	case '-':
		return func(row []float64) float64 { return l(row) - r(row) }
	case '*':
		return func(row []float64) float64 { return l(row) * r(row) }
	case '/':
		return func(row []float64) float64 {
			x, y := l(row), r(row)
			if y == 0 {
				return 0 // counters at zero: report 0, not NaN
			}
			return x / y
		}
	}
	return nil
}

type negNode struct{ x exprNode }

func (n negNode) compile(slots map[string]int) func([]float64) float64 {
	x := n.x.compile(slots)
	if x == nil {
		return nil
	}
	return func(row []float64) float64 { return -x(row) }
}

// Expr is a parsed metric formula.
type Expr struct {
	src  string
	root exprNode
}

// CompileExpr parses a formula once; a Program then evaluates it.
func CompileExpr(src string) (*Expr, error) {
	p := &exprParser{src: src}
	root, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("perfctr: trailing input %q in formula %q", p.src[p.pos:], src)
	}
	return &Expr{src: src, root: root}, nil
}

// Program is a group's metric formulas compiled once over one row of
// values: the counts of the events in order, then "time" and "clock"
// (the core clock in Hz).  Eval maps a row to the metrics without maps
// or allocation, so one program serves every sample of a measurement.
//
// "time" is each caller's explicit argument: the one-shot report uses a
// core's cycles over the clock (the wall time when either is missing),
// the marker API a region's accumulated cycle time, and the monitoring
// agent the wall time of its sampling interval, as the timeline's
// interval is.  Rate metrics of a partly halted core therefore differ
// between the one-shot tool and the agent by design.
type Program struct {
	width int
	exprs []*Expr                       // per metric; nil when the formula does not parse
	evals []func(row []float64) float64 // per metric; nil when unavailable
}

// NewProgram compiles metrics over rows of the given events.  A metric
// whose formula does not parse, or names an identifier with no slot, is
// unavailable: Eval reports it as NaN.
func NewProgram(events []string, metrics []Metric) *Program {
	slots := make(map[string]int, len(events)+2)
	for i, ev := range events {
		slots[ev] = i
	}
	slots["time"], slots["clock"] = len(events), len(events)+1
	p := &Program{width: len(events) + 2}
	for _, m := range metrics {
		e, _ := CompileExpr(m.Formula) // a parse error leaves the metric unavailable
		var eval func([]float64) float64
		if e != nil {
			eval = e.root.compile(slots)
		}
		p.exprs = append(p.exprs, e)
		p.evals = append(p.evals, eval)
	}
	return p
}

// Width is the row length: the events, then time and clock.
func (p *Program) Width() int { return p.width }

// Expr returns metric i's parsed formula, nil when it does not parse.
func (p *Program) Expr(i int) *Expr { return p.exprs[i] }

// Eval writes every metric of one row into out (len(out) >= the number
// of metrics).  NaN and infinities collapse to 0 for display, matching
// the tool's behaviour on empty counters, so a NaN in out marks exactly
// the unavailable metrics.
func (p *Program) Eval(row, out []float64) {
	for i, eval := range p.evals {
		if eval == nil {
			out[i] = math.NaN()
			continue
		}
		v := eval(row)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[i] = v
	}
}

// Interval writes the per-column increments cur - prev into into and
// returns it: the one delta of the timeline and the monitoring agent.
// A nil prev counts from zero, and a negative increment (a counter reset
// between samples, or multiplex extrapolation jitter) clamps to 0.
func Interval(into, prev, cur []float64) []float64 {
	into = append(into[:0], cur...)
	for i := range into {
		if prev != nil {
			into[i] -= prev[i]
		}
		if into[i] < 0 {
			into[i] = 0
		}
	}
	return into
}

// multiplexScale is the factor extrapolating the counts of a rotated
// event set, active for active of wall seconds, to the whole interval:
// 1 until both are positive.  Read and CurrentInto share it; each
// passes its own active figure.
func multiplexScale(wall, active float64) float64 {
	if active <= 0 || wall <= 0 {
		return 1
	}
	return wall / active
}

// Vars lists the identifiers the formula references.
func (e *Expr) Vars() []string {
	seen := map[string]bool{}
	var out []string
	var walk func(n exprNode)
	walk = func(n exprNode) {
		switch t := n.(type) {
		case varNode:
			if !seen[string(t)] {
				seen[string(t)] = true
				out = append(out, string(t))
			}
		case binNode:
			walk(t.l)
			walk(t.r)
		case negNode:
			walk(t.x)
		}
	}
	walk(e.root)
	return out
}

// String returns the source formula.
func (e *Expr) String() string { return e.src }

type exprParser struct {
	src string
	pos int
}

func (p *exprParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t') {
		p.pos++
	}
}

func (p *exprParser) peek() byte {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *exprParser) parseExpr() (exprNode, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		if op != '+' && op != '-' {
			return left, nil
		}
		p.pos++
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = binNode{op: op, l: left, r: right}
	}
}

func (p *exprParser) parseTerm() (exprNode, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		if op != '*' && op != '/' {
			return left, nil
		}
		p.pos++
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = binNode{op: op, l: left, r: right}
	}
}

func (p *exprParser) parseUnary() (exprNode, error) {
	if p.peek() == '-' {
		p.pos++
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return negNode{x: x}, nil
	}
	return p.parsePrimary()
}

func (p *exprParser) parsePrimary() (exprNode, error) {
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		inner, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.peek() != ')' {
			return nil, fmt.Errorf("perfctr: missing ')' in formula %q", p.src)
		}
		p.pos++
		return inner, nil
	case c >= '0' && c <= '9' || c == '.':
		return p.parseNumber()
	case unicode.IsLetter(rune(c)) || c == '_':
		return p.parseIdent(), nil
	case c == 0:
		return nil, fmt.Errorf("perfctr: unexpected end of formula %q", p.src)
	default:
		return nil, fmt.Errorf("perfctr: unexpected character %q in formula %q", string(c), p.src)
	}
}

func (p *exprParser) parseNumber() (exprNode, error) {
	p.skipSpace()
	start := p.pos
	seenExp := false
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c >= '0' && c <= '9' || c == '.':
			p.pos++
		case (c == 'e' || c == 'E') && !seenExp:
			seenExp = true
			p.pos++
			if p.pos < len(p.src) && (p.src[p.pos] == '+' || p.src[p.pos] == '-') {
				p.pos++
			}
		default:
			goto done
		}
	}
done:
	v, err := strconv.ParseFloat(p.src[start:p.pos], 64)
	if err != nil {
		return nil, fmt.Errorf("perfctr: bad number %q in formula %q", p.src[start:p.pos], p.src)
	}
	return numNode(v), nil
}

func (p *exprParser) parseIdent() exprNode {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c)) || c == '_' {
			p.pos++
			continue
		}
		break
	}
	return varNode(strings.TrimSpace(p.src[start:p.pos]))
}
