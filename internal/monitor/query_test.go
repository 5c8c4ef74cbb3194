package monitor

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// queryResponse is the /query JSON payload for one series.
type queryResponse struct {
	Source string            `json:"source,omitempty"`
	Metric string            `json:"metric"`
	Scope  string            `json:"scope"`
	ID     int               `json:"id"`
	Labels map[string]string `json:"labels,omitempty"`
	Points []Point           `json:"points"`
}

// querySeriesResponse is the /query payload for a wildcard source or
// label selector: one entry per matched series, sorted by key.
type querySeriesResponse struct {
	Series []queryResponse `json:"series"`
}

func queryResponseOf(k Key, pts []Point) queryResponse {
	return queryResponse{Source: k.Source, Metric: k.Metric, Scope: k.Scope.String(), ID: k.ID,
		Labels: k.Labels.Map(), Points: pts}
}

// randQueryString draws from the bytes encoding/json treats specially:
// the HTML-unsafe '<', '>', '&', quotes, backslashes, control bytes,
// non-ASCII (U+2028 included) and invalid UTF-8.
func randQueryString(rng *rand.Rand, label bool) string {
	alphabet := []string{"a", "Z", "_", "0", " ", "<", ">", "&", "\\", "é", "日", " ", "\xff", "\x01", "\"", ","}
	if label { // a label value holds no quote, comma or control byte
		alphabet = alphabet[:len(alphabet)-4]
	}
	var sb strings.Builder
	for n := 1 + rng.Intn(6); n > 0; n-- {
		sb.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// randQueryFloat draws finite values around encoding/json's format
// edges (1e-6 and 1e21, where 'f' turns to 'e'), zeros of both signs
// and arbitrary bit patterns.
func randQueryFloat(rng *rand.Rand) float64 {
	edges := []float64{0, math.Copysign(0, -1), 1e-6, 1e21, 1e-7, 1e20, 0.1, 123456789.125}
	switch rng.Intn(3) {
	case 0:
		f := edges[rng.Intn(len(edges))]
		if rng.Intn(2) == 0 {
			f = math.Nextafter(f, math.Inf(1-2*rng.Intn(2)))
		}
		if rng.Intn(2) == 0 {
			f = -f
		}
		return f
	case 1:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
	for {
		if f := math.Float64frombits(rng.Uint64()); finite(f) {
			return f
		}
	}
}

// TestQueryEntryMatchesEncodingJSON holds the /query append encoder to
// encoding/json byte for byte over random finite series: keys, label
// sets, nil and empty point lists.
func TestQueryEntryMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"job", "cluster", "Zone", "a_1", "rack"}
	for i := 0; i < 20000; i++ {
		k := Key{Metric: randQueryString(rng, false), Scope: Scope(rng.Intn(len(scopeNames))), ID: rng.Intn(1 << 20)}
		if rng.Intn(2) == 0 {
			k.Source = randQueryString(rng, false)
		}
		m := map[string]string{}
		for n := rng.Intn(4); n > 0; n-- {
			m[names[rng.Intn(len(names))]] = randQueryString(rng, true)
		}
		ls, err := MakeLabels(m)
		if err != nil {
			t.Fatalf("labels %q: %v", m, err)
		}
		k.Labels = ls
		var pts []Point
		if rng.Intn(8) > 0 {
			pts = []Point{}
			for n := rng.Intn(4); n > 0; n-- {
				pts = append(pts, Point{Time: randQueryFloat(rng), Value: randQueryFloat(rng)})
			}
		}
		want, err := json.Marshal(queryResponseOf(k, pts))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendQueryEntry(nil, k, pts); string(got) != string(want) {
			t.Fatalf("case %d: appendQueryEntry\n got %s\nwant %s", i, got, want)
		}
	}
}

// TestQueryFanOutMatchesEncodingJSON renders a fan-out large enough to
// be flushed in several pieces and compares the whole body with
// encoding/json.
func TestQueryFanOutMatchesEncodingJSON(t *testing.T) {
	st := NewStore(64)
	b := fleetBatch(20, 10, 4)
	for tick := 0; tick < 8; tick++ {
		for i := range b.Samples {
			b.Samples[i].Time, b.Samples[i].Value = float64(tick)+0.25, float64(i*tick)/3
		}
		st.AppendBatch(b)
	}
	h := &HTTPSink{store: st}
	keys := st.Keys()
	w := httptest.NewRecorder()
	h.writeQuerySeries(w, keys, 2, -1)
	var want querySeriesResponse
	for _, k := range keys {
		want.Series = append(want.Series, queryResponseOf(k, st.Window(k, 2, -1)))
	}
	body, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 2*queryFlushBytes {
		t.Fatalf("fan-out body is %d bytes, want several flushes of %d", len(body), queryFlushBytes)
	}
	if got := w.Body.String(); got != string(body)+"\n" {
		t.Fatalf("fan-out body differs from encoding/json (%d vs %d bytes)", len(got), len(body)+1)
	}
}

// TestQueryOmitsNonFinitePoints: JSON has no NaN or ±Inf, so /query
// leaves such points out and still answers a valid document with the
// series and its other points, in both the exact and the fan-out form.
func TestQueryOmitsNonFinitePoints(t *testing.T) {
	h, store := newTestHTTPSink(t)
	base := "http://" + h.Addr()
	bad := Key{Source: "nodeA", Metric: "bw", Scope: ScopeNode}
	for i, v := range []float64{1, math.NaN(), 3, math.Inf(1), math.Inf(-1)} {
		store.Append(bad, Point{Time: float64(i + 1), Value: v})
	}
	store.Append(Key{Source: "nodeB", Metric: "bw", Scope: ScopeNode}, Point{Time: 1, Value: 20})
	wantTimes := []float64{1, 3}

	code, body := get(t, base+"/query?metric=bw&scope=node&source=nodeA")
	if code != http.StatusOK {
		t.Fatalf("exact /query status %d: %s", code, body)
	}
	var one queryResponse
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatalf("exact /query is not JSON: %v\n%s", err, body)
	}
	if one.Source != "nodeA" || len(one.Points) != len(wantTimes) ||
		one.Points[0].Time != wantTimes[0] || one.Points[1].Time != wantTimes[1] {
		t.Fatalf("exact /query = %+v, want nodeA's finite points at %v", one, wantTimes)
	}

	code, body = get(t, base+"/query?metric=bw&scope=node&source=*")
	if code != http.StatusOK {
		t.Fatalf("fan-out /query status %d: %s", code, body)
	}
	var many querySeriesResponse
	if err := json.Unmarshal([]byte(body), &many); err != nil {
		t.Fatalf("fan-out /query is not JSON: %v\n%s", err, body)
	}
	if len(many.Series) != 2 || many.Series[0].Source != "nodeA" || len(many.Series[0].Points) != len(wantTimes) ||
		many.Series[1].Source != "nodeB" || len(many.Series[1].Points) != 1 {
		t.Fatalf("fan-out /query = %+v, want nodeA's finite points and nodeB's", many)
	}
}
