// Package spec is the one rule grammar of the suite.  Alert rules
// (internal/alert) and recorded rules (internal/derive) are lines of
// one shape, NAME SEP FN(selector, ...) ... (expr.go), so the
// tokenizer, the selector reader, the quoting rules, the expression
// parser and renderer and the rule-file loop live here once; each kind
// adds its separator, function names, tail and rejections.
//
// Errors carry 1-based line:column positions prefixed with the owning
// language's name ("alert: line 3:17: ..."), so a typo in a 50-rule
// file is findable regardless of which DSL it sits in.
package spec

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"likwid/internal/monitor"
)

// WordBreak are the delimiter characters that terminate a bare word.
// '{' and '}' delimit the label matcher block of a selector, so a bare
// metric stops at the block (quote a metric that really contains them).
const WordBreak = " \t:,()<>=\"{}"

// Scanner is the hand-rolled single-line tokenizer shared by the rule
// languages; errors report 1-based line:column positions under the
// language name handed to New.
type Scanner struct {
	lang string
	src  string
	pos  int
	line int
}

// New creates a scanner over one line of a lang-language file; lineNo is
// the 1-based line for error positions.
func New(lang, src string, lineNo int) *Scanner {
	return &Scanner{lang: lang, src: src, line: lineNo}
}

// Errf builds a positioned parse error at the 1-based column col.
func (s *Scanner) Errf(col int, format string, args ...any) error {
	return fmt.Errorf("%s: line %d:%d: %s", s.lang, s.line, col, fmt.Sprintf(format, args...))
}

// SkipSpace consumes spaces and tabs.
func (s *Scanner) SkipSpace() {
	for s.pos < len(s.src) && (s.src[s.pos] == ' ' || s.src[s.pos] == '\t') {
		s.pos++
	}
}

// Col is the 1-based column of the current position.
func (s *Scanner) Col() int { return s.pos + 1 }

// EOF reports whether only trailing space remains.
func (s *Scanner) EOF() bool {
	s.SkipSpace()
	return s.pos >= len(s.src)
}

// Rest returns the unconsumed tail (trailing-error rendering).
func (s *Scanner) Rest() string { return s.src[s.pos:] }

// Peek returns the next byte without consuming it; 0 at end of line.
func (s *Scanner) Peek() byte {
	s.SkipSpace()
	if s.pos >= len(s.src) {
		return 0
	}
	return s.src[s.pos]
}

// Word reads a maximal run of non-delimiter characters.
func (s *Scanner) Word() (string, int) { return s.word(WordBreak) }

// selectorWord reads a maximal run of non-delimiter characters, also
// stopping at '/' — the source/metric separator of a selector.
func (s *Scanner) selectorWord() (string, int) { return s.word(WordBreak + "/") }

// word reads a run of characters up to the first byte of stop.  It
// also stops at a character a quoted string may not hold (plainAt):
// a bare word is rendered back quoted when it needs quoting, so it may
// hold no more than a quoted string can.
func (s *Scanner) word(stop string) (string, int) {
	s.SkipSpace()
	start := s.pos
	for s.pos < len(s.src) && strings.IndexByte(stop, s.src[s.pos]) < 0 {
		n := plainAt(s.src, s.pos)
		if n == 0 {
			break
		}
		s.pos += n
	}
	return s.src[start:s.pos], start + 1
}

// plainAt is the byte length of the character at src[i] when Quoted
// would accept it, 0 when %q would escape it.
func plainAt(src string, i int) int {
	_, n := utf8.DecodeRuneInString(src[i:])
	if c := src[i : i+n]; strconv.Quote(c) != `"`+c+`"` {
		return 0
	}
	return n
}

// Selector reads the [SOURCE/]METRIC selector of a rule expression into
// its two dimensions.  Either part may be quoted; an unquoted leading
// segment that is one of the suite's reserved metric namespaces
// (event/, topo/, feature/, membw/, alert/) belongs to the metric, not
// a source — quoting the segment ("event"/x) forces the source reading.
func (s *Scanner) Selector() (source, metric string, col int, err error) {
	s.SkipSpace()
	quoted := false
	var part string
	if s.pos < len(s.src) && s.src[s.pos] == '"' {
		if part, col, err = s.Quoted(); err != nil {
			return "", "", col, err
		}
		quoted = true
	} else {
		part, col = s.selectorWord()
	}
	if s.pos < len(s.src) && s.src[s.pos] == '/' {
		if quoted || !monitor.ReservedNamespace(part) {
			s.pos++ // consume the separator
			if s.pos < len(s.src) && s.src[s.pos] == '"' {
				if metric, _, err = s.Quoted(); err != nil {
					return "", "", col, err
				}
			} else {
				metric, _ = s.Word() // '/' inside the metric tail stays
			}
			return part, metric, col, nil
		}
		// Reserved namespace: the '/' is part of the metric name.
		rest, _ := s.Word()
		part += rest
	}
	return "", part, col, nil
}

// Matchers reads the optional {name="value",...} label matcher block
// that may suffix a selector's metric.  Names are bare label names,
// values are quoted and may use '*' wildcards; duplicate names and an
// empty block are errors.  Matchers are returned sorted by name, so a
// rendered rule is canonical.
func (s *Scanner) Matchers() ([]monitor.Label, error) {
	s.SkipSpace()
	if s.pos >= len(s.src) || s.src[s.pos] != '{' {
		return nil, nil
	}
	s.pos++
	var out []monitor.Label
	seen := map[string]bool{}
	for {
		name, col := s.Word()
		if name == "" {
			return nil, s.Errf(col, "expected a label name in the matcher block")
		}
		if !monitor.ValidLabelName(name) {
			return nil, s.Errf(col, "bad matcher label name %q (letters, digits, '_'; not starting with a digit)", name)
		}
		if monitor.ReservedLabelName(name) {
			return nil, s.Errf(col, "label name %q is reserved; match it with the selector's own dimensions instead", name)
		}
		if seen[name] {
			return nil, s.Errf(col, "duplicate matcher label %q", name)
		}
		seen[name] = true
		if err := s.Expect('=', "after the matcher label name"); err != nil {
			return nil, err
		}
		value, vcol, err := s.Quoted()
		if err != nil {
			return nil, err
		}
		if value == "" {
			return nil, s.Errf(vcol, "empty matcher value for label %q", name)
		}
		out = append(out, monitor.Label{Name: name, Value: value})
		s.SkipSpace()
		if s.pos < len(s.src) && s.src[s.pos] == ',' {
			s.pos++
			continue
		}
		break
	}
	if err := s.Expect('}', "after the label matchers"); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Quoted reads a double-quoted string.  The language has no escape
// sequences (metric names contain no quotes), so any content that Go's
// %q would escape — backslashes, control bytes, invalid UTF-8 — could
// never render back canonically and is rejected.
func (s *Scanner) Quoted() (string, int, error) {
	s.SkipSpace()
	start := s.pos
	if s.pos >= len(s.src) || s.src[s.pos] != '"' {
		return "", start + 1, s.Errf(start+1, "expected quoted string")
	}
	s.pos++
	end := strings.IndexByte(s.src[s.pos:], '"')
	if end < 0 {
		return "", start + 1, s.Errf(start+1, "unterminated quoted metric")
	}
	out := s.src[s.pos : s.pos+end]
	s.pos += end + 1
	if strconv.Quote(out) != `"`+out+`"` {
		return "", start + 1, s.Errf(start+1, "quoted name contains unprintable or escape characters")
	}
	return out, start + 1, nil
}

// Expect consumes one required delimiter byte.
func (s *Scanner) Expect(ch byte, what string) error {
	s.SkipSpace()
	if s.pos >= len(s.src) || s.src[s.pos] != ch {
		return s.Errf(s.Col(), "expected %q %s", string(ch), what)
	}
	s.pos++
	return nil
}

// Accept consumes ch if it is next and reports whether it did.
func (s *Scanner) Accept(ch byte) bool {
	s.SkipSpace()
	if s.pos < len(s.src) && s.src[s.pos] == ch {
		s.pos++
		return true
	}
	return false
}

// AcceptRaw consumes ch only if it is the immediate next byte — no
// space skipping, for two-character operators like "<=".
func (s *Scanner) AcceptRaw(ch byte) bool {
	if s.pos < len(s.src) && s.src[s.pos] == ch {
		s.pos++
		return true
	}
	return false
}

// Duration parses a positive Go duration word ("30s", "1m30s").
func (s *Scanner) Duration(what string, allowZero bool) (time.Duration, error) {
	w, col := s.Word()
	if w == "" {
		return 0, s.Errf(col, "expected %s duration (like 30s)", what)
	}
	d, err := time.ParseDuration(w)
	if err != nil {
		return 0, s.Errf(col, "bad %s duration %q (want a Go duration like 30s or 1m)", what, w)
	}
	if d < 0 || (!allowZero && d == 0) {
		return 0, s.Errf(col, "%s duration must be positive, got %q", what, w)
	}
	return d, nil
}

// validName reports whether a rule name is usable as a series-name
// component: letters, digits, '_', '-', '.'.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
		default:
			return false
		}
	}
	return true
}

// QuoteMetric re-quotes metric selectors that need it — anything the
// scanner treats as a delimiter, plus '#' so a rendered rule survives a
// rule file's comment stripping, plus a leading segment the selector
// parser would otherwise read as a source label.
func QuoteMetric(m string) string {
	if strings.ContainsAny(m, WordBreak+"#") {
		return fmt.Sprintf("%q", m)
	}
	if seg, _, found := strings.Cut(m, "/"); found && !monitor.ReservedNamespace(seg) {
		return fmt.Sprintf("%q", m)
	}
	return m
}

// QuoteSource re-quotes source selectors the parser could not read back
// bare: delimiters, a '/' inside the label, or a label that collides
// with a reserved metric namespace.
func QuoteSource(s string) string {
	if strings.ContainsAny(s, WordBreak+"#/") || monitor.ReservedNamespace(s) {
		return fmt.Sprintf("%q", s)
	}
	return s
}

// RenderSelector renders a (source, metric, matchers) triple back in
// selector syntax so the scanner reads it into the same triple.
// Matcher values render raw inside their quotes — anything the parser
// accepted contains no '"', so the round trip is verbatim.
func RenderSelector(source, metric string, matchers []monitor.Label) string {
	sel := QuoteMetric(metric)
	if source != "" {
		sel = QuoteSource(source) + "/" + sel
	}
	if len(matchers) == 0 {
		return sel
	}
	var b strings.Builder
	b.WriteString(sel)
	b.WriteByte('{')
	for i, m := range matchers {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, m.Name, m.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// FormatSeconds renders a simulated-seconds quantity as a Go duration.
// It clamps at the longest Duration: the seconds of a duration near it
// round up past it, and the conversion would wrap to a negative one.
func FormatSeconds(s float64) string {
	ns := s * float64(time.Second)
	if ns >= math.MaxInt64 {
		return time.Duration(math.MaxInt64).String()
	}
	return time.Duration(ns).String()
}

// StripComment removes a '#' comment, respecting quoted metrics.
func StripComment(line string) string {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inQuote = !inQuote
		case '#':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}
