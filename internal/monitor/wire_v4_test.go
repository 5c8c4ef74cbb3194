package monitor

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"likwid/internal/telemetry"
)

// wireSample is one fixture row: a sample plus what a push sink carries
// alongside it onto the wire.
type wireSample struct {
	Sample
	Collector string
	SentAt    float64
}

// encodeV4 renders fixture rows through the push sink's encoder.
func encodeV4(tb testing.TB, rows []wireSample) []byte {
	tb.Helper()
	samples, meta := rowsOf(rows)
	payload, err := new(V4Encoder).encode(nil, samples, meta)
	if err != nil {
		tb.Fatalf("v4 encode: %v", err)
	}
	return payload
}

// decodeV4Batch decodes a payload into a fresh batch.
func decodeV4Batch(payload []byte) (*groupBatch, error) {
	b := &groupBatch{}
	return b, decodeV4(payload, b)
}

// v4WireSamples is a fixture exercising grouping (two series), labels,
// sent_at stamps and irregular values.
func v4WireSamples(tb testing.TB) []wireSample {
	lbm, err := MakeLabels(map[string]string{"job": "lbm", "rack": "r1"})
	if err != nil {
		tb.Fatal(err)
	}
	a := Sample{Source: "nodeA-7", Labels: lbm, Metric: "dp_mflops_s", Scope: ScopeThread}
	b := Sample{Source: "nodeB-9", Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket}
	at := func(s Sample, t, v float64) Sample { s.Time, s.Value = t, v; return s }
	const c = "perfgroup/MEM_DP"
	return []wireSample{
		{at(a, 0.5, 571.25), c, 100},
		{at(a, 1.0, 570.75), c, 100},
		{at(a, 1.5, 571.25), c, 100.5},
		{at(b, 0.5, 13714.285), c, 100},
		{at(b, 1.0, 13710), c, 100},
	}
}

// v4MixedSamples is a group-major fixture exercising every table and
// column path at once: a deep group next to one-point groups, several
// sources and every scope, label sets that are empty, shared and
// distinct, and sent_at stamps that vary inside the batch.
func v4MixedSamples(tb testing.TB) []wireSample {
	lbm, err := MakeLabels(map[string]string{"job": "lbm"})
	if err != nil {
		tb.Fatal(err)
	}
	emmy, err := MakeLabels(map[string]string{"cluster": "emmy", "job": "lbm"})
	if err != nil {
		tb.Fatal(err)
	}
	var rows []wireSample
	for i := 0; i < 40; i++ { // deep: two flushes' worth of one series
		rows = append(rows, wireSample{
			Sample: Sample{Source: "nodeA", Metric: "bw", Scope: ScopeSocket, ID: 1, Labels: lbm,
				Time: 0.25 * float64(i), Value: 100 + float64(i%3)},
			Collector: "perfgroup/MEM_DP", SentAt: 1700000000 + float64(i/20),
		})
	}
	for i, src := range []string{"nodeA", "nodeB", "rack1"} { // wide: one point each
		for s := ScopeThread; s <= ScopeNode; s++ {
			rows = append(rows, wireSample{
				Sample: Sample{Source: src, Metric: fmt.Sprintf("m%d", s), Scope: s, ID: i,
					Labels: []Labels{{}, lbm, emmy}[(i+int(s))%3], Time: 5, Value: 1.5*float64(i) + float64(s)},
				Collector: "synthetic", SentAt: 1700000000.5 + float64(i),
			})
		}
	}
	for i := 0; i < 5; i++ { // deep again, after the boundary jump back in time
		rows = append(rows, wireSample{
			Sample:    Sample{Source: "nodeB", Metric: "bw", Scope: ScopeSocket, Time: 0.5 * float64(i), Value: -3e9 * float64(i)},
			Collector: "perfgroup/MEM_DP",
		})
	}
	return rows
}

// TestV4RoundTrip pins the codec end to end: encode → decode returns the
// rows in order with the exact identities, times, values, label pairs
// and sent_at stamps — grouped, and with nothing interned.
func TestV4RoundTrip(t *testing.T) {
	for name, in := range map[string][]wireSample{"two series": v4WireSamples(t), "mixed": v4MixedSamples(t)} {
		before := InternedLabelSets()
		b, err := decodeV4Batch(encodeV4(t, in))
		if err != nil {
			t.Fatalf("%s: decodeV4: %v", name, err)
		}
		if got := InternedLabelSets(); got != before {
			t.Errorf("%s: decode interned %d label sets, want none before the payload is accepted", name, got-before)
		}
		// Grouping reorders across series (group-major) but keeps arrival
		// order within a series; the fixtures are already group-major, so
		// the decode must match them one to one.
		groups := 1
		for i := 1; i < len(in); i++ {
			if in[i].Key() != in[i-1].Key() || in[i].Collector != in[i-1].Collector {
				groups++
			}
		}
		if len(b.groups) != groups || b.rows() != len(in) || len(b.times) != len(in) ||
			len(b.sentAts) != len(in) || len(b.values) != len(in) {
			t.Fatalf("%s: decode = %d groups / %d rows / %d+%d+%d column entries, want %d groups of %d rows",
				name, len(b.groups), b.rows(), len(b.times), len(b.sentAts), len(b.values), groups, len(in))
		}
		row := 0
		for _, g := range b.groups {
			if g.key.Labels != (Labels{}) {
				t.Errorf("%s: group %+v has interned labels, want unset (decode must not intern)", name, g)
			}
			for r := g.lo; r < g.hi; r++ {
				want := in[row]
				row++
				if k := want.Key(); g.key.Source != k.Source || g.key.Metric != k.Metric || g.key.Scope != k.Scope || g.key.ID != k.ID ||
					b.times[r] != want.Time || b.values[r] != want.Value || b.sentAts[r] != want.SentAt {
					t.Errorf("%s: row %d = %+v t=%v v=%v sent_at=%v, want the encoding of %+v",
						name, r, g, b.times[r], b.values[r], b.sentAts[r], want)
				}
				if encodePairs(g.pairs) != want.Labels.String() {
					t.Errorf("%s: row %d labels = %v, want %v", name, r, g.pairs, want.Labels)
				}
			}
		}

		// The exported inverse: samples back, labels interned.
		samples := make([]Sample, len(in))
		for i, r := range in {
			samples[i] = r.Sample
		}
		payload, err := new(V4Encoder).Encode(nil, samples)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeV4Samples(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, samples) {
			t.Errorf("%s: DecodeV4Samples(Encode(samples)) = %+v, want %+v", name, got, samples)
		}
	}
}

// TestV4ColumnCodecsRoundTripRandom sweeps the two column codecs with
// random data: the delta-of-delta timestamp codec must be lossless for
// arbitrary float64s (it runs over bit patterns, not values), and the
// Gorilla XOR value codec likewise.  The delta codec runs over random
// group boundaries, empty groups included.
func TestV4ColumnCodecsRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		starts := []int32{0}
		for i := 0; i <= n; i++ {
			for rng.Intn(4) == 0 {
				starts = append(starts, int32(i))
			}
		}
		vals := make([]float64, n)
		for i := range vals {
			switch rng.Intn(5) {
			case 0:
				vals[i] = float64(i) * 0.1 // regular ramp
			case 1:
				vals[i] = math.Float64frombits(rng.Uint64()) // arbitrary bits (incl. NaN)
			case 2:
				vals[i] = 0
			case 3:
				vals[i] = -rng.Float64() * 1e12
			default:
				vals[i] = rng.NormFloat64()
			}
		}
		got, err := decodeDeltaColumn(columnBody(t, appendDeltaColumn(nil, vals, starts)), n, starts, nil)
		if err != nil {
			t.Fatalf("trial %d: delta decode: %v", trial, err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("trial %d: delta entry %d = %x, want %x",
					trial, i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
		got, err = decodeXORColumn(columnBody(t, appendXORColumn(nil, vals, starts)), n, starts, nil)
		if err != nil {
			t.Fatalf("trial %d: xor decode: %v", trial, err)
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("trial %d: xor entry %d = %x, want %x",
					trial, i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
			}
		}
	}
}

// TestV4EncoderShapeCacheMatchesFresh is the shape cache's differential
// oracle: one long-lived encoder, which remembers shapes, against a fresh
// encoder per batch over random batches drawn from 48 shapes, about three
// times as many as the cache holds with its bound lowered to 16 KiB.
// Among them: twins of one length, first and last row that differ in one
// middle row's collector, metric, label set, scope or id (the cache's
// index key cannot tell them apart),
// group-major and interleaved rows, the empty batch, batches without
// wire metadata, and negative-id batches, which must fail on both and
// leave the cache usable.  Every payload must be byte-identical.
func TestV4EncoderShapeCacheMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sets := []Labels{{}, mustLabels(t, "job=lbm"), mustLabels(t, "cluster=emmy,job=lbm")}
	lowerBound(t, &v4MaxShapeBytes, 16<<10)
	var shapes [][]v4GroupKey
	for len(shapes) < 48 {
		var groups, rows []v4GroupKey
		for g := range 1 + rng.Intn(12) {
			groups = append(groups, v4GroupKey{fmt.Sprintf("c%d", rng.Intn(2)), Key{
				Source: fmt.Sprintf("node%d", rng.Intn(3)), Metric: fmt.Sprintf("m%d", g),
				Scope: Scope(rng.Intn(int(ScopeNode) + 1)), ID: rng.Intn(4), Labels: sets[rng.Intn(len(sets))],
			}})
		}
		depth := 1 + rng.Intn(3)
		for d := range depth {
			if rng.Intn(2) == 0 { // interleaved: tick-major
				rows = append(rows, groups...)
			} else if d == 0 { // group-major
				for _, g := range groups {
					for range depth {
						rows = append(rows, g)
					}
				}
			}
		}
		shapes = append(shapes, rows)
		if len(rows) < 3 {
			continue
		}
		twin := slices.Clone(rows)
		r := &twin[1+rng.Intn(len(twin)-2)]
		switch rng.Intn(5) {
		case 0:
			r.collector += "x"
		case 1:
			r.key.Metric += "x"
		case 2:
			r.key.Labels = sets[(slices.Index(sets, r.key.Labels)+1)%len(sets)]
		case 3:
			r.key.Scope = (r.key.Scope + 1) % (ScopeNode + 1)
		default:
			r.key.ID++
		}
		shapes = append(shapes, twin)
	}
	shapes = append(shapes, nil)

	reg := telemetry.New()
	var enc V4Encoder
	enc.Instrument(reg, "test")
	var out []byte
	for i := range 2000 {
		rows := shapes[rng.Intn(len(shapes))]
		samples := make([]Sample, len(rows))
		meta := make([]sampleMeta, len(rows))
		for j, r := range rows {
			k := r.key
			samples[j] = Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope, ID: k.ID, Labels: k.Labels,
				Time: float64(i) + 0.25*float64(j), Value: float64(rng.Intn(4))}
			meta[j] = sampleMeta{collector: r.collector, sentAt: 1700000000 + float64(i)}
		}
		if rng.Intn(4) == 0 {
			meta = nil // the WAL's form: no collector, no sent_at
		}
		negative := len(rows) > 0 && rng.Intn(40) == 0
		if negative {
			samples[rng.Intn(len(samples))].ID = -1
		}
		prefix := make([]byte, rng.Intn(9)) // the WAL frames after a header
		want, wantErr := new(V4Encoder).encode(slices.Clone(prefix), samples, meta)
		var err error
		out, err = enc.encode(append(out[:0], prefix...), samples, meta)
		if negative {
			if err == nil || wantErr == nil {
				t.Fatalf("batch %d: a negative id encoded (cached: %v, fresh: %v)", i, err, wantErr)
			}
			continue
		}
		if err != nil || wantErr != nil {
			t.Fatalf("batch %d: encode failed (cached: %v, fresh: %v)", i, err, wantErr)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("batch %d (%d rows): the cached encoder's payload differs from a fresh encoder's:\n% x\nvs\n% x", i, len(rows), out, want)
		}
	}
	counts := map[string]float64{}
	for _, result := range []string{"hit", "miss", "reset"} {
		counts[result] = float64(reg.Counter("likwid_v4_shape_cache_total", "cache", "test", "result", result).Value())
	}
	if counts["hit"] < 200 || counts["miss"] < 200 || counts["reset"] < 5 {
		t.Errorf("the batches did not exercise the cache: %v", counts)
	}
}

// columnBody strips (and checks) a column's uvarint length prefix.
func columnBody(t *testing.T, col []byte) []byte {
	t.Helper()
	n, sz := binary.Uvarint(col)
	if sz <= 0 || int(n) != len(col)-sz {
		t.Fatalf("column prefix announces %d bytes (prefix size %d), column holds %d", n, sz, len(col)-sz)
	}
	return col[sz:]
}

// TestV4DecodeRejectsMalformed is the all-or-nothing contract on the
// binary path: structural damage and invalid record content both reject
// the whole payload.
func TestV4DecodeRejectsMalformed(t *testing.T) {
	valid := encodeV4(t, v4WireSamples(t))
	bad := map[string][]byte{
		"empty":          {},
		"wrong magic":    []byte("LKW3garbage"),
		"json body":      []byte(`{"time":1,"metric":"bw","scope":"node","id":0,"value":1}`),
		"truncated":      valid[:len(valid)-3],
		"trailing bytes": append(append([]byte{}, valid...), 0xAA),
		"magic only":     []byte(v4Magic),
		"retired layout": retiredV4Payload("job", "lbm"),
	}
	for name, payload := range bad {
		if _, err := decodeV4Batch(payload); err == nil {
			t.Errorf("%s: decodeV4 succeeded, want error", name)
		}
	}

	// Invalid record content: NaN value, negative time, bad scope, empty
	// metric, a label no validator would have interned — the encoder does
	// not validate (it is fed already-validated samples), so encoding
	// them exercises the decoder's screens.
	badLabels := Labels{set: &labelSet{pairs: []Label{{Name: "bad name", Value: "x"}}, canon: "bad name=x"}}
	for name, sm := range map[string]Sample{
		"NaN value":     {Time: 1, Metric: "bw", Scope: ScopeNode, Value: math.NaN()},
		"Inf value":     {Time: 1, Metric: "bw", Scope: ScopeNode, Value: math.Inf(1)},
		"negative time": {Time: -1, Metric: "bw", Scope: ScopeNode, Value: 1},
		"NaN time":      {Time: math.NaN(), Metric: "bw", Scope: ScopeNode, Value: 1},
		"bad scope":     {Time: 1, Metric: "bw", Scope: Scope(42), Value: 1},
		"empty metric":  {Time: 1, Metric: "   ", Scope: ScopeNode, Value: 1},
		"bad label":     {Time: 1, Metric: "bw", Scope: ScopeNode, Value: 1, Labels: badLabels},
	} {
		payload := encodeV4(t, []wireSample{{Sample: sm}})
		if _, err := decodeV4Batch(payload); err == nil {
			t.Errorf("%s: decodeV4 accepted invalid record", name)
		}
		if _, err := DecodeV4Samples(payload, nil); err == nil {
			t.Errorf("%s: DecodeV4Samples accepted invalid record", name)
		}
	}

	// Label pairs may arrive in any order (a foreign encoder).
	unsorted := rawV4Base()
	unsorted.strs = append(unsorted.strs, "rack", "r1")
	unsorted.set = []uint64{6, 7, 4, 5}
	b, err := decodeV4Batch(unsorted.bytes(t))
	if err != nil {
		t.Fatalf("unsorted label pairs rejected: %v", err)
	}
	if got := encodePairs(b.groups[0].pairs); got != "job=never-seen-raw,rack=r1" {
		t.Errorf("unsorted pairs decoded as %q, want them sorted", got)
	}

	// Table and directory damage: each is a 400 through the handler, with
	// no series created and nothing interned — the payload's one label set
	// is novel, so interning it early would show.
	tables := map[string]func(r *rawV4){
		"string ref out of range": func(r *rawV4) { r.group[2] = uint64(len(r.strs)) },
		"set ref out of range":    func(r *rawV4) { r.group[5] = 1 },
		"label ref out of range":  func(r *rawV4) { r.set[1] = uint64(len(r.strs)) },
		"set with a duplicate name": func(r *rawV4) {
			r.strs = append(r.strs, "xhpl")
			r.set = append(r.set, 4, uint64(len(r.strs)-1))
		},
		"unknown scope string":         func(r *rawV4) { r.strs[3] = "galaxy" },
		"id beyond int32":              func(r *rawV4) { r.group[4] = 1 << 31 },
		"row total beyond the columns": func(r *rawV4) { r.group[6] = 100 },
		"row total beyond the payload": func(r *rawV4) { r.group[6] = 1 << 40 },
		"trailing bits in a column":    func(r *rawV4) { r.padValues = true },
	}
	h := fuzzSink()
	for name, mutate := range tables {
		r := rawV4Base()
		mutate(&r)
		payload := r.bytes(t)
		b, err := decodeV4Batch(payload)
		if err == nil {
			t.Errorf("%s: decodeV4 succeeded, want error", name)
			continue
		}
		if strings.HasPrefix(name, "row total") && cap(b.times)+cap(b.sentAts)+cap(b.values) != 0 {
			t.Errorf("%s: columns were allocated before the row total was rejected (%v)", name, err)
		}
		keys, interned := len(h.store.Keys()), InternedLabelSets()
		rejected := h.tRejected["decode"].Value()
		if code := postV4(h, payload); code != http.StatusBadRequest {
			t.Errorf("%s: /ingest = %d, want 400", name, code)
		}
		if got := h.tRejected["decode"].Value(); got != rejected+1 {
			t.Errorf("%s: rejected{reason=decode} moved by %d, want 1", name, got-rejected)
		}
		if len(h.store.Keys()) != keys || InternedLabelSets() != interned {
			t.Errorf("%s: rejected payload left %d series and %d label sets behind",
				name, len(h.store.Keys())-keys, InternedLabelSets()-interned)
		}
	}
	if code := postV4(h, rawV4Base().bytes(t)); code != http.StatusOK {
		t.Errorf("the undamaged base payload = %d, want 200", code)
	}
}

// rawV4 is a hand-assembled one-set, one-group, one-row v4 payload (time
// 1, sent_at 0, value 2), for the shapes no encoder writes: its tables
// and directory entry are spelled out as refs.
type rawV4 struct {
	strs      []string
	set       []uint64  // string refs, name then value
	group     [7]uint64 // collector, source, metric, scope, id, set, rows
	padValues bool      // one spare byte at the end of the value column
}

// rawV4Base is "bw" on node 0 of nodeA, under a label set no other test
// interns.
func rawV4Base() rawV4 {
	return rawV4{
		strs:  []string{"", "nodeA", "bw", "node", "job", "never-seen-raw"},
		set:   []uint64{4, 5},
		group: [7]uint64{0, 1, 2, 3, 0, 0, 1},
	}
}

func (r rawV4) bytes(t *testing.T) []byte {
	p := binary.AppendUvarint([]byte(v4Magic), uint64(len(r.strs)))
	for _, s := range r.strs {
		p = appendString(p, s)
	}
	p = binary.AppendUvarint(append(p, 1), uint64(len(r.set)/2)) // one set
	for _, ref := range r.set {
		p = binary.AppendUvarint(p, ref)
	}
	p = append(p, 1) // one group
	for _, v := range r.group {
		p = binary.AppendUvarint(p, v)
	}
	p = appendDeltaColumn(p, []float64{1}, []int32{0})
	p = appendDeltaColumn(p, []float64{0}, []int32{0})
	values := appendXORColumn(nil, []float64{2}, []int32{0})
	if r.padValues {
		body := append(columnBody(t, values), 0)
		values = append(binary.AppendUvarint(nil, uint64(len(body))), body...)
	}
	return append(p, values...)
}

// postV4 runs one v4 POST /ingest through h's handler.
func postV4(h *HTTPSink, payload []byte) int {
	req := httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(payload))
	req.Header.Set("Content-Type", V4ContentType)
	w := httptest.NewRecorder()
	h.handleIngest(w, req)
	return w.Code
}

// TestV4StaleLayoutRejected: a payload of the retired per-group layout
// (magic "LKW4") is a decode error — 400, reason="decode", no series, no
// interned label set — never misread as the current layout.
func TestV4StaleLayoutRejected(t *testing.T) {
	h := fuzzSink()
	keys, interned := len(h.store.Keys()), InternedLabelSets()
	if code := postV4(h, retiredV4Payload("job", "never-seen-stale")); code != http.StatusBadRequest {
		t.Fatalf("retired-layout POST = %d, want 400", code)
	}
	if got := h.tRejected["decode"].Value(); got != 1 {
		t.Errorf("rejected{reason=decode} = %d, want 1", got)
	}
	if len(h.store.Keys()) != keys || InternedLabelSets() != interned {
		t.Errorf("retired-layout POST left %d series and %d label sets behind",
			len(h.store.Keys())-keys, InternedLabelSets()-interned)
	}
}

// retiredV4Payload spells out one sample of the retired per-group layout:
// "LKW4", one group carrying its identity strings and label pairs
// inline, and per-group columns whose first entries are raw 64-bit words.
func retiredV4Payload(labelName, labelValue string) []byte {
	p := append([]byte("LKW4"), 1) // one group
	for _, s := range []string{"c", "nodeA", "bw", "node"} {
		p = appendString(p, s)
	}
	p = append(p, 0, 1) // id 0, one label pair
	p = appendString(appendString(p, labelName), labelValue)
	p = append(p, 1)                       // one sample
	for _, v := range []float64{1, 0, 2} { // time, sent_at, value
		p = binary.BigEndian.AppendUint64(append(p, 8), math.Float64bits(v))
	}
	return p
}

// TestV4IngestEndToEnd posts a v4 payload (identity and gzipped) at a
// live receiver and checks the samples land on the same keys a v3
// JSON-lines push would use.
func TestV4IngestEndToEnd(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()

	code, body := postIngest4(t, base, encodeV4(t, v4WireSamples(t)), false)
	if code != http.StatusOK {
		t.Fatalf("v4 ingest = %d %q", code, body)
	}
	var resp ingestResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil || resp.Accepted != 5 {
		t.Fatalf("v4 ingest response = %q (err %v), want accepted 5", body, err)
	}
	labels, err := MakeLabels(map[string]string{"job": "lbm", "rack": "r1"})
	if err != nil {
		t.Fatal(err)
	}
	kA := Key{Source: "nodeA-7", Metric: "dp_mflops_s", Scope: ScopeThread, ID: 0, Labels: labels}
	if pts := store.Window(kA, 0, -1); len(pts) != 3 || pts[0].Value != 571.25 {
		t.Errorf("labelled series = %+v, want the 3 nodeA points", pts)
	}
	kB := Key{Source: "nodeB-9", Metric: "memory_bandwidth_mbytes_s", Scope: ScopeSocket, ID: 0}
	if pts := store.Window(kB, 0, -1); len(pts) != 2 || pts[1].Value != 13710 {
		t.Errorf("socket series = %+v, want the 2 nodeB points", pts)
	}

	// Gzipped v4: the Content-Encoding layer composes with the binary
	// Content-Type.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	sourced := encodeV4(t, []wireSample{
		{Sample: Sample{Time: 9, Source: "nodeC", Metric: "bw", Scope: ScopeNode, Value: 42}, Collector: "c"},
	})
	if _, err := zw.Write(sourced); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if code, body := postIngest4(t, base, gz.Bytes(), true); code != http.StatusOK {
		t.Fatalf("gzipped v4 ingest = %d %q", code, body)
	}
	kC := Key{Source: "nodeC", Metric: "bw", Scope: ScopeNode, ID: 0}
	if p, ok := store.Latest(kC); !ok || p.Value != 42 {
		t.Errorf("gzipped v4 sample = %+v (%v), want value 42 under source nodeC", p, ok)
	}

	// A malformed v4 body is a 400, all-or-nothing.
	before := len(store.Keys())
	if code, _ := postIngest4(t, base, []byte(v4Magic+"\xff\xff\xff"), false); code != http.StatusBadRequest {
		t.Errorf("malformed v4 ingest = %d, want 400", code)
	}
	if after := len(store.Keys()); after != before {
		t.Errorf("malformed v4 ingest left %d new series behind", after-before)
	}
}

// postIngest4 is postIngest with the v4 Content-Type.
func postIngest4(t *testing.T, base string, body []byte, gzipped bool) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", V4ContentType)
	if gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestPushSinkWireFormatGoldenV4 pins the v4 wire bytes: the push sink
// in WireV4 mode posts the binary payload identity-encoded under the v4
// Content-Type, and the bytes are deterministic.
func TestPushSinkWireFormatGoldenV4(t *testing.T) {
	rec := &captureReceiver{}
	srvURL := serveTest(t, &http.Server{Handler: http.HandlerFunc(rec.handler)})

	p, err := NewPushSink(PushOptions{
		URL: srvURL, Client: testClient, FlushSamples: 1 << 20, Source: "nodeA-7",
		Format: WireV4, Now: epochClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches() {
		if err := p.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.payloads) != 1 {
		t.Fatalf("receiver saw %d pushes, want 1", len(rec.payloads))
	}
	h := rec.headers[0]
	if h.Get("Content-Type") != V4ContentType || h.Get("Content-Encoding") != "" {
		t.Errorf("v4 push headers = type %q enc %q, want %s / identity",
			h.Get("Content-Type"), h.Get("Content-Encoding"), V4ContentType)
	}
	checkGolden(t, "push_batch_v4.golden", rec.payloads[0])
}

// TestV4PushReceiveEndToEnd runs the real pipeline on the v4 wire: push
// sink in WireV4 mode → live receiver → store windows.
func TestV4PushReceiveEndToEnd(t *testing.T) {
	h, store := newTestHTTPSink(t)
	p, err := NewPushSink(PushOptions{
		URL: "http://" + h.Addr() + "/ingest", Client: testClient, FlushSamples: 1,
		Source: "agentX", Format: WireV4, Now: epochClock,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range goldenBatches() {
		if err := p.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Sent(); got != 8 {
		t.Fatalf("Sent = %d, want all 8 samples", got)
	}
	k := Key{Source: "agentX", Metric: "dp_mflops_s", Scope: ScopeThread, ID: 0}
	pts := store.Window(k, 0, -1)
	if len(pts) != 2 || pts[0].Value != 571.25 || pts[1].Value != 570.75 {
		t.Errorf("received series = %+v, want both thread-0 points", pts)
	}
}

// TestV4WireDensity is the acceptance gate: on a realistic deep batch
// (regularly sampled series, slowly-moving values) the v4 wire must
// spend at least 3× fewer bytes per sample than gzipped v3 JSON lines,
// and never more than the 3538 bytes the per-group layout took; on the
// wide flush an agent ships every interval (one point per series) it
// must stay at most 12 bytes per sample — the per-group layout took 85.
func TestV4WireDensity(t *testing.T) {
	wide := encodeV4(t, wideRows(t))
	widePer := float64(len(wide)) / 512
	t.Logf("wide bytes/sample: v4 %.2f", widePer)
	if widePer > 12 {
		t.Errorf("wide v4 = %.2f bytes/sample, want <= 12", widePer)
	}

	samples := densityWireSamples(t, 8, 512)
	v4 := encodeV4(t, samples)
	if len(v4) > 3538 {
		t.Errorf("deep v4 = %d bytes, want <= 3538", len(v4))
	}
	var v3 bytes.Buffer
	zw := gzip.NewWriter(&v3)
	enc := json.NewEncoder(zw)
	for _, r := range samples {
		if err := enc.Encode(jsonSample{
			Time: r.Time, SentAt: r.SentAt, Collector: r.Collector, Source: r.Source,
			Labels: r.Labels.Map(), Metric: r.Metric, Scope: r.Scope.String(), ID: r.ID, Value: r.Value,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	n := float64(len(samples))
	v4per, v3per := float64(len(v4))/n, float64(v3.Len())/n
	t.Logf("bytes/sample: v4 %.2f, v3 gzip %.2f (%.1fx)", v4per, v3per, v3per/v4per)
	if v4per*3 > v3per {
		t.Errorf("v4 = %.2f bytes/sample vs v3 gzip %.2f — want ≥3x denser", v4per, v3per)
	}

	// And the round trip still holds at this size.
	b, err := decodeV4Batch(v4)
	if err != nil {
		t.Fatal(err)
	}
	if b.rows() != len(samples) {
		t.Fatalf("decoded %d samples, want %d", b.rows(), len(samples))
	}
}

// TestV4FuzzCorpusSeeds keeps the checked-in FuzzIngestV4 seed corpus in
// sync with the encoder: -update regenerates the files, a normal run
// asserts each is present and parses as a Go fuzz corpus entry.
func TestV4FuzzCorpusSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzIngestV4")
	seeds := fuzzV4Seeds(t)
	entry := func(name string) []byte {
		return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbool(%v)\n", seeds[name].Body, seeds[name].Gzip))
	}
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name := range seeds {
			if err := os.WriteFile(filepath.Join(dir, "seed_"+name), entry(name), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for name, seed := range seeds {
		data, err := os.ReadFile(filepath.Join(dir, "seed_"+name))
		if err != nil {
			t.Fatalf("missing corpus seed (run with -update): %v", err)
		}
		if !bytes.HasPrefix(data, []byte("go test fuzz v1\n[]byte(")) {
			t.Errorf("seed_%s is not a fuzz corpus entry:\n%s", name, data)
		}
		// Byte identity of every seed the encoder produces pins the wire
		// bytes: a layout change must regenerate the corpus on purpose.
		// (The gzipped seed is exempt: compress/gzip's output is not
		// stable across Go releases.)
		if !seed.Gzip && !bytes.Equal(data, entry(name)) {
			t.Errorf("seed_%s differs from what the encoder produces now:\n%s\nvs\n%s", name, data, entry(name))
		}
	}
}

// densityWireSamples models a steady fleet flush: nSeries series sampled
// every 125 ms (exact in binary, like the suite's other fixtures),
// quantized values that hold for several ticks between steps (monitoring
// series are sampled faster than they change), sent_at constant per
// flush — the shape the columnar codecs are built for.
func densityWireSamples(tb testing.TB, nSeries, nTicks int) []wireSample {
	lbm, err := MakeLabels(map[string]string{"job": "lbm"})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	out := make([]wireSample, 0, nSeries*nTicks)
	for s := 0; s < nSeries; s++ {
		v := 1000 + float64(rng.Intn(100))
		for i := 0; i < nTicks; i++ {
			if i%8 == 0 {
				v += float64(rng.Intn(11) - 5)
			}
			out = append(out, wireSample{
				Sample: Sample{
					Source: "node42", Labels: lbm, Metric: "memory_bandwidth_mbytes_s",
					Scope: ScopeThread, ID: s, Time: float64(i) * 0.125, Value: v,
				},
				Collector: "perfgroup/MEM_DP",
				SentAt:    1700000000,
			})
		}
	}
	return out
}

// lowerBound sets a cache's byte bound to n for the rest of the test.
func lowerBound(t *testing.T, bound *int, n int) {
	old := *bound
	*bound = n
	t.Cleanup(func() { *bound = old })
}
