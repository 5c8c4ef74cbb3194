package spec

import (
	"reflect"
	"testing"
	"time"

	"likwid/internal/monitor"
)

// errText is err's message, "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func TestWord(t *testing.T) {
	tests := []struct {
		src  string
		word string
		col  int
		rest string
	}{
		{"foo", "foo", 1, ""},
		{"  foo bar", "foo", 3, " bar"},
		{"\tname: avg", "name", 2, ": avg"},
		{"a-b.c_d/e*[f]", "a-b.c_d/e*[f]", 1, ""}, // '/', '*', brackets are word characters
		{"bw{job", "bw", 1, "{job"},
		{"x>=1", "x", 1, ">=1"},
		{"(x)", "", 1, "(x)"}, // a delimiter first: the empty word, nothing consumed
		{"   ", "", 4, ""},
	}
	for _, tt := range tests {
		s := New("alert", tt.src, 1)
		word, col := s.Word()
		if word != tt.word || col != tt.col || s.Rest() != tt.rest {
			t.Errorf("Word(%q) = (%q, %d) rest %q, want (%q, %d) rest %q",
				tt.src, word, col, s.Rest(), tt.word, tt.col, tt.rest)
		}
	}
}

func TestSelector(t *testing.T) {
	tests := []struct {
		src            string
		source, metric string
		col            int
		rest           string
		err            string
	}{
		{src: "bw", metric: "bw", col: 1},
		{src: "  bw, node", metric: "bw", col: 3, rest: ", node"},
		{src: "nodeA/bw", source: "nodeA", metric: "bw", col: 1},
		{src: "*/dp_mflops_s", source: "*", metric: "dp_mflops_s", col: 1},
		{src: "node*/mem*{job", source: "node*", metric: "mem*", col: 1, rest: "{job"},
		// A reserved metric namespace is part of the metric, not a source…
		{src: "event/INSTR_RETIRED", metric: "event/INSTR_RETIRED", col: 1},
		{src: "alert/r", metric: "alert/r", col: 1},
		// …unless the segment is quoted, or a source precedes it.
		{src: `"event"/x`, source: "event", metric: "x", col: 1},
		{src: "nodeA/event/X", source: "nodeA", metric: "event/X", col: 1},
		{src: `"Memory bandwidth [MBytes/s]", node`, metric: "Memory bandwidth [MBytes/s]", col: 1, rest: ", node"},
		{src: `nodeA/"a b"`, source: "nodeA", metric: "a b", col: 1},
		{src: `"rack 1"/"a/b"`, source: "rack 1", metric: "a/b", col: 1},
		{src: ` "open`, col: 2, err: "alert: line 7:2: unterminated quoted metric"},
		{src: `nodeA/"open`, col: 1, err: "alert: line 7:7: unterminated quoted metric"},
	}
	for _, tt := range tests {
		s := New("alert", tt.src, 7)
		source, metric, col, err := s.Selector()
		if errText(err) != tt.err {
			t.Errorf("Selector(%q) error = %v, want %q", tt.src, err, tt.err)
			continue
		}
		if source != tt.source || metric != tt.metric || col != tt.col || (err == nil && s.Rest() != tt.rest) {
			t.Errorf("Selector(%q) = (%q, %q, %d) rest %q, want (%q, %q, %d) rest %q",
				tt.src, source, metric, col, s.Rest(), tt.source, tt.metric, tt.col, tt.rest)
		}
	}
}

func TestMatchers(t *testing.T) {
	tests := []struct {
		src  string
		want []monitor.Label
		rest string
		err  string
	}{
		{src: ""},
		{src: ", node", rest: ", node"}, // no block: nothing consumed
		{src: `{job="lbm"}`, want: []monitor.Label{{Name: "job", Value: "lbm"}}},
		{src: ` { job = "lbm" } x`, want: []monitor.Label{{Name: "job", Value: "lbm"}}, rest: " x"},
		// Returned sorted by name; values keep wildcards and punctuation.
		{src: `{job="l*m",cluster="a b, c}"}`, want: []monitor.Label{
			{Name: "cluster", Value: "a b, c}"}, {Name: "job", Value: "l*m"}}},
		{src: `{}`, err: "derive: line 2:2: expected a label name in the matcher block"},
		{src: `{9x="v"}`, err: `derive: line 2:2: bad matcher label name "9x" (letters, digits, '_'; not starting with a digit)`},
		{src: `{source="n"}`, err: `derive: line 2:2: label name "source" is reserved; match it with the selector's own dimensions instead`},
		{src: `{a="1",a="2"}`, err: `derive: line 2:8: duplicate matcher label "a"`},
		{src: `{a "1"}`, err: `derive: line 2:4: expected "=" after the matcher label name`},
		{src: `{a=1}`, err: "derive: line 2:4: expected quoted string"},
		{src: `{a=""}`, err: `derive: line 2:4: empty matcher value for label "a"`},
		{src: `{a="1"`, err: `derive: line 2:7: expected "}" after the label matchers`},
		{src: `{a="1",}`, err: "derive: line 2:8: expected a label name in the matcher block"},
	}
	for _, tt := range tests {
		s := New("derive", tt.src, 2)
		got, err := s.Matchers()
		if errText(err) != tt.err {
			t.Errorf("Matchers(%q) error = %v, want %q", tt.src, err, tt.err)
			continue
		}
		if !reflect.DeepEqual(got, tt.want) || (err == nil && s.Rest() != tt.rest) {
			t.Errorf("Matchers(%q) = %v rest %q, want %v rest %q", tt.src, got, s.Rest(), tt.want, tt.rest)
		}
	}
}

func TestQuoted(t *testing.T) {
	tests := []struct {
		src  string
		want string
		col  int
		rest string
		err  string
	}{
		{src: `"abc"`, want: "abc", col: 1},
		{src: `   "a b # c", x`, want: "a b # c", col: 4, rest: ", x"},
		{src: `""`, want: "", col: 1},
		{src: `abc`, col: 1, err: "alert: line 4:1: expected quoted string"},
		{src: ``, col: 1, err: "alert: line 4:1: expected quoted string"},
		{src: `  "abc`, col: 3, err: "alert: line 4:3: unterminated quoted metric"},
		// No escape sequences: content %q would escape cannot render back.
		{src: `"a\b"`, col: 1, err: "alert: line 4:1: quoted name contains unprintable or escape characters"},
		{src: "\"a\tb\"", col: 1, err: "alert: line 4:1: quoted name contains unprintable or escape characters"},
		{src: "\"a\xffb\"", col: 1, err: "alert: line 4:1: quoted name contains unprintable or escape characters"},
	}
	for _, tt := range tests {
		s := New("alert", tt.src, 4)
		got, col, err := s.Quoted()
		if errText(err) != tt.err {
			t.Errorf("Quoted(%q) error = %v, want %q", tt.src, err, tt.err)
			continue
		}
		if got != tt.want || col != tt.col || (err == nil && s.Rest() != tt.rest) {
			t.Errorf("Quoted(%q) = (%q, %d) rest %q, want (%q, %d) rest %q",
				tt.src, got, col, s.Rest(), tt.want, tt.col, tt.rest)
		}
	}
}

func TestDuration(t *testing.T) {
	tests := []struct {
		src       string
		allowZero bool
		want      time.Duration
		err       string
	}{
		{src: "30s", want: 30 * time.Second},
		{src: "  1m30s every", want: 90 * time.Second},
		{src: "250ms", want: 250 * time.Millisecond},
		{src: "0s", allowZero: true, want: 0},
		{src: "0s", err: `alert: line 9:1: hold duration must be positive, got "0s"`},
		{src: " -5s", allowZero: true, err: `alert: line 9:2: hold duration must be positive, got "-5s"`},
		{src: "", err: "alert: line 9:1: expected hold duration (like 30s)"},
		{src: "   )", err: "alert: line 9:4: expected hold duration (like 30s)"},
		{src: "  soon", err: `alert: line 9:3: bad hold duration "soon" (want a Go duration like 30s or 1m)`},
		{src: "30", err: `alert: line 9:1: bad hold duration "30" (want a Go duration like 30s or 1m)`},
	}
	for _, tt := range tests {
		got, err := New("alert", tt.src, 9).Duration("hold", tt.allowZero)
		if errText(err) != tt.err || got != tt.want {
			t.Errorf("Duration(%q, allowZero=%v) = (%v, %v), want (%v, %q)", tt.src, tt.allowZero, got, err, tt.want, tt.err)
		}
	}
}

// TestRenderSelectorRoundTrip is the canonical-rendering property both
// rule languages rest on (Reload compares rendered specs): whatever
// RenderSelector writes, Selector + Matchers read back into the same
// (source, metric, matchers) triple, consuming the whole rendering —
// over sources and metrics that need quoting and wildcard label values.
func TestRenderSelectorRoundTrip(t *testing.T) {
	sources := []string{"", "nodeA", "*", "node*", "rack 1", "event", "dc/rack", "n#1", "a{b}"}
	metrics := []string{"bw", "mem*", "*", "Memory bandwidth [MBytes/s]", "event/INSTR_RETIRED",
		"foo/bar", "a{b}", "x#y", "a:b", "cpi/min", "topo/socket/x", "alert"}
	matcherSets := [][]monitor.Label{
		nil,
		{{Name: "job", Value: "lbm"}},
		{{Name: "cluster", Value: "*"}, {Name: "job", Value: "l*m"}},
		{{Name: "a", Value: "x y, {z} #1"}, {Name: "b_2", Value: "node*/7"}},
	}
	for _, source := range sources {
		for _, metric := range metrics {
			for _, matchers := range matcherSets {
				rendered := RenderSelector(source, metric, matchers)
				s := New("alert", rendered, 1)
				gotSource, gotMetric, _, err := s.Selector()
				if err != nil {
					t.Errorf("(%q, %q, %v) rendered %q: Selector: %v", source, metric, matchers, rendered, err)
					continue
				}
				gotMatchers, err := s.Matchers()
				if err != nil {
					t.Errorf("(%q, %q, %v) rendered %q: Matchers: %v", source, metric, matchers, rendered, err)
					continue
				}
				if gotSource != source || gotMetric != metric || !reflect.DeepEqual(gotMatchers, matchers) || !s.EOF() {
					t.Errorf("(%q, %q, %v) rendered %q read back as (%q, %q, %v) rest %q",
						source, metric, matchers, rendered, gotSource, gotMetric, gotMatchers, s.Rest())
				}
				if StripComment(rendered) != rendered {
					t.Errorf("rendering %q does not survive comment stripping", rendered)
				}
			}
		}
	}
}
