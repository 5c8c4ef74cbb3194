package monitor

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"likwid/internal/telemetry"
)

// TestIngestMemoFollowsReconfiguration walks /ingest's identity memo
// through what may change between two posts of one identity: default
// labels and routes set in between take effect, route counters advance
// on every post, a payload one directory byte away misses, one that
// differs only in its columns hits, and a bad row in a remembered
// identity is 400'd with the text a never-seen payload gets.
func TestIngestMemoFollowsReconfiguration(t *testing.T) {
	reg := telemetry.New()
	h := &HTTPSink{store: NewStore(64)}
	h.Instrument(reg)
	memo := func(result string) uint64 {
		return reg.Counter("likwid_v4_shape_cache_total", "cache", "ingest", "result", result).Value()
	}
	rows := v4WireSamples(t) // a: 3 rows on nodeA-7 dp_mflops_s, b: 2 rows on nodeB-9
	payload := encodeV4(t, rows)
	post := func(step string, p []byte, hit bool) {
		t.Helper()
		hits, misses := memo("hit"), memo("miss")
		if code, body := postV4Body(h, p, false); code != http.StatusOK {
			t.Fatalf("%s: /ingest = %d %q", step, code, body)
		}
		if gotHit := memo("hit") == hits+1 && memo("miss") == misses; gotHit != hit {
			t.Fatalf("%s: hit = %v, want %v (hits %d -> %d, misses %d -> %d)",
				step, gotHit, hit, hits, memo("hit"), misses, memo("miss"))
		}
	}
	points := func(k Key) int { return len(h.store.Window(k, 0, -1)) }
	ka, kb := rows[0].Key(), rows[3].Key()

	post("first post", payload, false)
	post("repeat", payload, true)
	if points(ka) != 6 || points(kb) != 4 {
		t.Fatalf("two posts stored %d and %d points, want 6 and 4", points(ka), points(kb))
	}

	emmy := mustLabels(t, "cluster=emmy")
	h.SetIngestLabels(emmy)
	post("after SetIngestLabels", payload, false)
	post("repeat under the labels", payload, true)
	kbEmmy := kb
	kbEmmy.Labels = emmy
	if points(kbEmmy) != 4 {
		t.Fatalf("the default label reached %d points of %v, want 4", points(kbEmmy), kbEmmy)
	}

	r := NewRouter([]IngestRoute{{Metric: "dp_mflops_s", Action: RouteRename, NewMetric: "flops", Spec: "rename"}})
	r.Instrument(reg)
	h.SetRouter(r)
	renamed := reg.Counter("likwid_ingest_routed_total", "action", "rename")
	for i, hit := range []bool{false, true, true} {
		post("routed", payload, hit)
		if want := uint64(3 * (i + 1)); r.Statuses()[0].Matched != want || renamed.Value() != want {
			t.Fatalf("post %d under the route: matched %d, routed_total %d, want %d",
				i, r.Statuses()[0].Matched, renamed.Value(), want)
		}
	}
	kFlops := Key{Source: ka.Source, Metric: "flops", Scope: ka.Scope, Labels: mustLabels(t, "cluster=emmy,job=lbm,rack=r1")}
	if points(kFlops) != 9 {
		t.Fatalf("the rename reached %d points of %v, want 9", points(kFlops), kFlops)
	}

	// b's id is one directory byte; its values are a column.
	moved := append([]wireSample(nil), rows...)
	moved[3].ID, moved[4].ID = 1, 1
	if p := encodeV4(t, moved); differingBytes(p, payload) != 1 {
		t.Fatalf("moving b's id changed %d bytes, want 1", differingBytes(p, payload))
	} else {
		post("one directory byte changed", p, false)
	}
	revalued := append([]wireSample(nil), rows...)
	revalued[4].Value = 13711
	p := encodeV4(t, revalued)
	if ident := len(h.identMemoEntry(payload).ident); !bytes.Equal(p[:ident], payload[:ident]) || bytes.Equal(p, payload) {
		t.Fatal("changing b's last value should change the columns only")
	}
	post("columns changed", p, true)
	if last, _ := h.store.Latest(kbEmmy); last.Value != 13711 {
		t.Fatalf("the hit stored %v as b's newest point, want 13711", last)
	}

	bad := append([]wireSample(nil), rows...)
	bad[4].Time = -1
	p = encodeV4(t, bad)
	if h.identMemoEntry(p) == nil {
		t.Fatal("the bad payload's identity is not remembered")
	}
	fresh := &HTTPSink{store: NewStore(64)}
	fresh.SetIngestLabels(emmy)
	fresh.SetRouter(r)
	before := points(kbEmmy)
	code, hitBody := postV4Body(h, p, false)
	freshCode, missBody := postV4Body(fresh, p, false)
	if code != http.StatusBadRequest || freshCode != code || hitBody != missBody {
		t.Fatalf("a bad row: %d %q from a remembered identity, %d %q from a fresh sink", code, hitBody, freshCode, missBody)
	}
	if points(kbEmmy) != before {
		t.Fatal("the rejected payload stored points")
	}
}

// TestIngestMemoConcurrentPosts posts two identities from several
// goroutines at once while another keeps clearing the memo (SetRouter
// with no routes changes nothing else): every post must land exactly
// once, on hits and misses alike.
func TestIngestMemoConcurrentPosts(t *testing.T) {
	h := &HTTPSink{store: NewStore(1024)}
	h.Instrument(telemetry.New())
	rows := v4WireSamples(t)
	other := append([]wireSample(nil), rows...)
	for i := range other {
		other[i].Source = "nodeC-3"
	}
	payloads := [][]byte{encodeV4(t, rows), encodeV4(t, other)}
	const workers, posts = 4, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				h.SetRouter(nil)
			}
		}
	}()
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range posts {
				if code, body := postV4Body(h, payloads[(w+i)%2], false); code != http.StatusOK {
					t.Errorf("worker %d post %d: %d %q", w, i, code, body)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	for _, r := range []wireSample{rows[0], rows[3], other[0], other[3]} {
		want := 3 * workers * posts / 2
		if r.Metric != rows[0].Metric {
			want = 2 * workers * posts / 2
		}
		if got := len(h.store.Window(r.Key(), 0, -1)); got != want {
			t.Errorf("%v holds %d points, want %d", r.Key(), got, want)
		}
	}
}

// TestShapeCachesHoldAFleet cycles the ticks of 100 agents, 64 series
// each, through one encoder and one receiver, as a forwarding receiver
// sees them: both caches are bounded by bytes, not by a count of shapes,
// so from the second lap on every batch hits both.
func TestShapeCachesHoldAFleet(t *testing.T) {
	reg := telemetry.New()
	h := &HTTPSink{store: NewStore(64)}
	h.Instrument(reg)
	var enc V4Encoder
	enc.Instrument(reg, "push")
	count := func(cache, result string) uint64 {
		return reg.Counter("likwid_v4_shape_cache_total", "cache", cache, "result", result).Value()
	}
	const agents = 100
	rows := wideRows(t)[:64]
	var out []byte
	for lap := range 2 {
		for a := range agents {
			for i := range rows {
				rows[i].Source = fmt.Sprintf("agent%d", a)
				rows[i].Time = float64(lap)
			}
			samples, meta := rowsOf(rows)
			var err error
			if out, err = enc.encode(out[:0], samples, meta); err != nil {
				t.Fatal(err)
			}
			if code, body := postV4Body(h, out, false); code != http.StatusOK {
				t.Fatalf("lap %d agent %d: /ingest = %d %q", lap, a, code, body)
			}
		}
	}
	for _, cache := range []string{"push", "ingest"} {
		if hit, miss, reset := count(cache, "hit"), count(cache, "miss"), count(cache, "reset"); hit != agents || miss != agents || reset != 0 {
			t.Errorf("%s: %d hits, %d misses, %d resets over two laps of %d agents, want %d, %d, 0",
				cache, hit, miss, reset, agents, agents, agents)
		}
	}
}

// TestIngestMemoSkipsOversizedIdentity holds the memo to its byte bound
// when one identity alone exceeds it: the identity is not remembered (no
// reset, nothing held), and every post of it takes the full path.
func TestIngestMemoSkipsOversizedIdentity(t *testing.T) {
	lowerBound(t, &maxIdentMemoBytes, 1<<10)
	reg := telemetry.New()
	h := &HTTPSink{store: NewStore(64)}
	h.Instrument(reg)
	payload := encodeV4(t, wideRows(t)[:64]) // its memo entry would hold ~2 KiB
	for post := range 2 {
		if code, body := postV4Body(h, payload, false); code != http.StatusOK {
			t.Fatalf("post %d: /ingest = %d %q", post, code, body)
		}
	}
	for result, want := range map[string]uint64{"hit": 0, "miss": 2, "reset": 0} {
		if got := reg.Counter("likwid_v4_shape_cache_total", "cache", "ingest", "result", result).Value(); got != want {
			t.Errorf("%s = %d, want %d", result, got, want)
		}
	}
	if h.identMemo != nil || h.identMemoBytes != 0 {
		t.Errorf("the memo holds %d bytes in %d buckets, want nothing", h.identMemoBytes, len(h.identMemo))
	}
}

// identMemoEntry is the memo entry whose identity section data starts
// with, or nil.
func (h *HTTPSink) identMemoEntry(data []byte) *ingestShape {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, entries := range h.identMemo {
		for _, e := range entries {
			if bytes.HasPrefix(data, e.ident) {
				return e
			}
		}
	}
	return nil
}

// differingBytes counts the positions at which a and b differ, and
// every byte of the longer one past the shorter one's end.
func differingBytes(a, b []byte) int {
	n := max(len(a), len(b)) - min(len(a), len(b))
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// TestJSONIngestLandsWithoutShape pins the JSON path past its decoder:
// nothing memoizes a JSON batch, so it lands straight from its decoded
// groups — routing, labels, series resolution and append allocate
// nothing once the series exist (a throwaway shape and its land groups
// cost 2 per request before).
func TestJSONIngestLandsWithoutShape(t *testing.T) {
	var body bytes.Buffer
	for _, r := range wideRows(t) {
		fmt.Fprintf(&body, `{"time":%v,"collector":%q,"source":%q,"labels":%s,"metric":%q,"scope":%q,"id":%d,"value":%v}`+"\n",
			r.Time, r.Collector, r.Source, labelsJSON(r.Labels), r.Metric, r.Scope, r.ID, r.Value)
	}
	h := &HTTPSink{store: NewStore(1024)}
	var b groupBatch
	if err := decodeIngest(body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	lands := func() {
		if _, _, err := h.prepare(&b); err != nil {
			t.Fatal(err)
		}
		if _, n := land(h, b.groups, &b, false); n != len(b.times) {
			t.Fatalf("landed %d of %d rows", n, len(b.times))
		}
	}
	lands() // creates the series
	for _, k := range h.store.Keys() {
		for range 1024 { // fill the rings: their growth is not the path's
			h.store.Append(k, Point{})
		}
	}
	if allocs := testing.AllocsPerRun(20, lands); allocs != 0 {
		t.Fatalf("a JSON batch's stages after decode allocate %.0f per request, want 0", allocs)
	}
}

func labelsJSON(ls Labels) string {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, p := range ls.Pairs() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%q", p.Name, p.Value)
	}
	return b.String() + "}"
}
