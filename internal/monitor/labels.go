package monitor

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Label is one name=value pair of a series label set.
type Label struct {
	Name  string
	Value string
}

// labelSet is the interned backing of a Labels handle: the pairs sorted
// by name plus their canonical "name=value,name=value" encoding, which
// doubles as the intern identity.
type labelSet struct {
	pairs []Label
	canon string
}

// Labels is a small, canonically ordered, interned label set — the
// structured tail of a series identity (job=lbm, cluster=emmy) beyond
// the single Source dimension.  The zero value is the empty set, so
// unlabelled keys are unchanged by the labels dimension.
//
// Labels is a handle: equal sets always intern to the same pointer, so
// Labels (and therefore Key) compares with == and hashes as one word —
// the hot append path stays one atomic load plus one map access with no
// per-point string building.
type Labels struct {
	set *labelSet
}

// labelIntern is the process-wide intern table.  Label sets are tiny and
// stable (a node's job/cluster identity, a receiver's fleet), so the
// mutex is only ever touched when a new combination first appears.
var labelIntern = struct {
	sync.Mutex
	m map[string]*labelSet
}{m: map[string]*labelSet{}}

// InternedLabelSets reports the size of the process-wide intern table —
// the store's "how much identity state am I holding" self-metric.  It
// only ever grows, so a runaway remote labelling scheme shows up as a
// climbing gauge long before memory does.
func InternedLabelSets() int {
	labelIntern.Lock()
	defer labelIntern.Unlock()
	return len(labelIntern.m)
}

// Limits on hostile label sets: /ingest validates remote payloads, so
// the caps must hold for anything the wire can carry.
const (
	maxLabels      = 16
	maxLabelLength = 128
)

// ValidLabelName reports whether s is a usable label name: letters,
// digits and '_', not starting with a digit — the exposition-format
// label shape, so /metrics lines never need name escaping.
func ValidLabelName(s string) bool {
	if s == "" || len(s) > maxLabelLength {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ReservedLabelName reports whether name collides with a label the
// suite emits itself: /metrics writes source=, scope= and id= next to
// the structured set, and duplicate label names are invalid exposition
// format, so user labels must not shadow them.
func ReservedLabelName(name string) bool {
	return name == "source" || name == "scope" || name == "id"
}

// validLabelValue reports whether s can be a label value.  Values are
// free-form except for the characters that would make the canonical
// "name=value,..." encoding ambiguous (','), break the one-line formats
// ('"', control characters), and a length cap against hostile payloads.
func validLabelValue(s string) bool {
	if s == "" || len(s) > maxLabelLength {
		return false
	}
	for _, r := range s {
		if r < 0x20 || r == 0x7f || r == ',' || r == '"' {
			return false
		}
	}
	return true
}

// checkLabel validates one pair with a field-level error.
func checkLabel(name, value string) error {
	if !ValidLabelName(name) {
		return fmt.Errorf("monitor: bad label name %q (letters, digits, '_'; not starting with a digit; at most %d bytes)", name, maxLabelLength)
	}
	if ReservedLabelName(name) {
		return fmt.Errorf("monitor: label name %q is reserved (the suite emits source/scope/id labels itself)", name)
	}
	if !validLabelValue(value) {
		return fmt.Errorf("monitor: bad value %q for label %q (non-empty, no ',', '\"' or control characters, at most %d bytes)", value, name, maxLabelLength)
	}
	return nil
}

// appendPairs appends name-sorted pairs in the canonical
// "name=value,name=value" form — the one encoding shared by the intern
// identity, Labels.String, and FormatLabelMap.
func appendPairs(dst []byte, pairs []Label) []byte {
	for i, p := range pairs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, p.Name...)
		dst = append(dst, '=')
		dst = append(dst, p.Value...)
	}
	return dst
}

// encodePairs is appendPairs as a string.
func encodePairs(pairs []Label) string { return string(appendPairs(nil, pairs)) }

// FormatLabelMap renders a label map in the canonical sorted
// "name=value,name=value" encoding — for callers (the alert log
// notifier) that hold the wire-shape map, not an interned handle.
func FormatLabelMap(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	pairs := make([]Label, 0, len(m))
	for name, value := range m {
		pairs = append(pairs, Label{Name: name, Value: value})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name < pairs[j].Name })
	return encodePairs(pairs)
}

// internLabels canonicalizes validated, name-sorted, duplicate-free
// pairs into the shared handle.  The table grows one entry per distinct
// set for the life of the process — the same order of growth as the
// store's series index, which keys on the sets it returns; callers must
// validate before interning so rejected input never lands here.
//
// A hit — every call but a set's first — allocates nothing: the
// canonical form is built in a stack buffer and only looked up.  A miss
// stores its own copies of the strings, because ingest hands in pairs
// that alias a whole request payload.
func internLabels(pairs []Label) Labels {
	if len(pairs) == 0 {
		return Labels{}
	}
	var buf [128]byte
	canon := appendPairs(buf[:0], pairs)
	labelIntern.Lock()
	defer labelIntern.Unlock()
	if set := labelIntern.m[string(canon)]; set != nil {
		return Labels{set: set}
	}
	set := &labelSet{pairs: make([]Label, len(pairs)), canon: string(canon)}
	for i, p := range pairs {
		set.pairs[i] = Label{Name: strings.Clone(p.Name), Value: strings.Clone(p.Value)}
	}
	labelIntern.m[set.canon] = set
	return Labels{set: set}
}

// CheckLabelMap validates a wire label map without interning it, so an
// ingest batch can be screened all-or-nothing before any record's set
// is allowed to land in the process-wide intern table.
func CheckLabelMap(m map[string]string) error {
	if len(m) > maxLabels {
		return fmt.Errorf("monitor: %d labels exceed the limit of %d", len(m), maxLabels)
	}
	for name, value := range m {
		if err := checkLabel(name, value); err != nil {
			return err
		}
	}
	return nil
}

// MakeLabels validates and interns a label map; a nil or empty map is
// the empty set.  Any invalid pair rejects the whole set, so an ingest
// batch carrying it can 400 all-or-nothing.
func MakeLabels(m map[string]string) (Labels, error) {
	if len(m) == 0 {
		return Labels{}, nil
	}
	if err := CheckLabelMap(m); err != nil {
		return Labels{}, err
	}
	pairs := make([]Label, 0, len(m))
	for name, value := range m {
		pairs = append(pairs, Label{Name: name, Value: value})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name < pairs[j].Name })
	return internLabels(pairs), nil
}

// ParseLabelSpec parses the CLI form "name=value,name=value" (the
// likwid-agent -labels flag); empty input is the empty set.
func ParseLabelSpec(spec string) (Labels, error) {
	if strings.TrimSpace(spec) == "" {
		return Labels{}, nil
	}
	parts := strings.Split(spec, ",")
	if len(parts) > maxLabels {
		return Labels{}, fmt.Errorf("monitor: %d labels exceed the limit of %d", len(parts), maxLabels)
	}
	pairs := make([]Label, 0, len(parts))
	seen := map[string]bool{}
	for _, part := range parts {
		name, value, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Labels{}, fmt.Errorf("monitor: bad label %q (want name=value)", part)
		}
		if err := checkLabel(name, value); err != nil {
			return Labels{}, err
		}
		if seen[name] {
			return Labels{}, fmt.Errorf("monitor: duplicate label %q", name)
		}
		seen[name] = true
		pairs = append(pairs, Label{Name: name, Value: value})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].Name < pairs[j].Name })
	return internLabels(pairs), nil
}

// Empty reports whether the set has no labels.
func (l Labels) Empty() bool { return l.set == nil }

// Len is the number of labels.
func (l Labels) Len() int {
	if l.set == nil {
		return 0
	}
	return len(l.set.pairs)
}

// Get returns the value of one label.
func (l Labels) Get(name string) (string, bool) {
	if l.set == nil {
		return "", false
	}
	for _, p := range l.set.pairs {
		if p.Name == name {
			return p.Value, true
		}
	}
	return "", false
}

// Pairs returns the labels sorted by name (a copy; the interned set is
// immutable).
func (l Labels) Pairs() []Label { return slices.Clone(l.view()) }

// view returns the interned pairs, sorted by name, without Pairs' copy —
// for the package's encoders, which only read them.
func (l Labels) view() []Label {
	if l.set == nil {
		return nil
	}
	return l.set.pairs
}

// Map returns the labels as a map — the wire shape of the v3 push
// schema.  Nil for the empty set, so "labels" is omitted from
// unlabelled records and v2 payloads stay byte-identical.
func (l Labels) Map() map[string]string {
	if l.set == nil {
		return nil
	}
	m := make(map[string]string, len(l.set.pairs))
	for _, p := range l.set.pairs {
		m[p.Name] = p.Value
	}
	return m
}

// String is the canonical "name=value,name=value" encoding, sorted by
// name; empty for the empty set.  It is injective (values cannot
// contain ','), so it doubles as a sort key and a CSV cell.
func (l Labels) String() string {
	if l.set == nil {
		return ""
	}
	return l.set.canon
}

// MergeLabels overlays over on base: over wins per name.  The receiver
// uses it to stamp -labels defaults under each ingested sample's own
// labels, the scheduler to stamp the agent identity under a collector's
// own set.  The union of two valid sets can exceed maxLabels; paths
// that feed merged sets back onto the wire screen it with
// mergedLabelCount first, before a hostile union reaches the intern
// table.
func MergeLabels(base, over Labels) Labels {
	if base.set == nil {
		return over
	}
	if over.set == nil {
		return base
	}
	pairs := make([]Label, 0, len(base.set.pairs)+len(over.set.pairs))
	i, j := 0, 0
	for i < len(base.set.pairs) && j < len(over.set.pairs) {
		switch {
		case base.set.pairs[i].Name < over.set.pairs[j].Name:
			pairs = append(pairs, base.set.pairs[i])
			i++
		case base.set.pairs[i].Name > over.set.pairs[j].Name:
			pairs = append(pairs, over.set.pairs[j])
			j++
		default:
			pairs = append(pairs, over.set.pairs[j])
			i++
			j++
		}
	}
	pairs = append(pairs, base.set.pairs[i:]...)
	pairs = append(pairs, over.set.pairs[j:]...)
	return internLabels(pairs)
}

// mergedLabelCount is the size of defaults ∪ pairs, computed on raw
// pairs so the cap can be enforced before anything is interned.
func mergedLabelCount(defaults Labels, pairs []Label) int {
	n := defaults.Len()
	for _, p := range pairs {
		if _, ok := defaults.Get(p.Name); !ok {
			n++
		}
	}
	return n
}

// MatchLabels reports whether a series' label set satisfies every
// selector: the label must be present and its value must match the
// selector's pattern ('*' runs wildcard, the suite's shared selector
// idiom).  No selectors match everything, labelled or not.
func MatchLabels(selectors []Label, l Labels) bool {
	for _, sel := range selectors {
		v, ok := l.Get(sel.Name)
		if !ok {
			return false
		}
		if !matchLabelValue(sel.Value, v) {
			return false
		}
	}
	return true
}

// matchLabelPairs is MatchLabels over validated, uninterned pairs — the
// form ingest routes see, so a route can match (and reject) a group
// before anything reaches the intern table.
func matchLabelPairs(selectors, pairs []Label) bool {
	for _, sel := range selectors {
		i, ok := slices.BinarySearchFunc(pairs, sel, cmpLabelName) // pairs are sorted by name
		if !ok || !matchLabelValue(sel.Value, pairs[i].Value) {
			return false
		}
	}
	return true
}

// matchLabelValue matches one selector value pattern ('*' wildcards)
// against a label value.
func matchLabelValue(pattern, v string) bool {
	if strings.Contains(pattern, "*") {
		return WildcardMatch(pattern, v)
	}
	return pattern == v
}
