package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"likwid/internal/monitor"
	"likwid/internal/monitor/persist"
	"likwid/internal/telemetry"
)

// ---- read-back: queries over the terminal store ---------------------------

const (
	qExact = iota
	qFanout
	qLabel
	qScrape
	qKinds
)

var qNames = [qKinds]string{"exact", "fanout", "label", "scrape"}

// The query mix, in percent: exact single-series windows dominate, a
// few fleet-wide fan-outs and label slices, the occasional full scrape.
var qMix = [qKinds]int{80, 14, 5, 1}

// plannedQuery is one prebuilt request and what a correct answer holds.
type plannedQuery struct {
	url        string
	wantSeries int // expected series in the response (lines, for a scrape)
}

// readPlan is every URL a read phase may send, built before the clock
// starts so the generator's own cost stays negligible.
type readPlan struct {
	queries [qKinds][]plannedQuery
}

// readBlock is the window of a read phase, counted in requests, not
// time: every block of a client's sequence holds the same hundred
// requests' worth of the mix (80 exact, 14 fan-out, 5 label, 1 scrape,
// shuffled), so blocks are equal work and their rates and medians are
// comparable.  A time window would hold two scrapes or none, and a
// 10 k-line scrape costs as much as four hundred exact queries.
const readBlock = 100

// readStats is what a read phase measured.
type readStats struct {
	lat       [qKinds][]float64 // ms, every response
	p50       [qKinds]float64   // ms, median across blocks of the per-block median
	perSecond float64           // valid responses per second, median across blocks
	bytes     int64
	points    int64
	attempted int64
	failed    int64
	wall      time.Duration
}

func (r *readStats) n() int {
	n := 0
	for k := range r.lat {
		n += len(r.lat[k])
	}
	return n
}

// buildReadPlan derives the queries from the keys the store holds.
func buildReadPlan(rng *rand.Rand, term terminal, exacts, fanouts, labels int) *readPlan {
	st := term.store
	keys := st.Keys()
	base := "http://" + term.addr
	plan := &readPlan{}
	if len(keys) == 0 {
		return plan
	}
	params := func(k monitor.Key) url.Values {
		v := url.Values{}
		v.Set("metric", k.Metric)
		v.Set("scope", k.Scope.String())
		v.Set("id", strconv.Itoa(k.ID))
		return v
	}
	pick := func() monitor.Key { return keys[rng.Intn(len(keys))] }
	// Every query asks for a 60-point window ending at the newest point
	// of the series it was planned from.
	window := func(k monitor.Key, v url.Values) {
		if pts := st.Window(k, 0, -1); len(pts) > 60 {
			v.Set("from", strconv.FormatFloat(pts[len(pts)-60].Time, 'g', -1, 64))
		}
	}
	for i := 0; i < exacts; i++ {
		k := pick()
		v := params(k)
		if k.Source != "" {
			v.Set("source", k.Source)
		}
		window(k, v)
		plan.queries[qExact] = append(plan.queries[qExact], plannedQuery{base + "/query?" + v.Encode(), 1})
	}
	for i := 0; i < fanouts; i++ {
		k := pick()
		v := params(k)
		v.Set("source", "*")
		window(k, v)
		want := len(st.Select(monitor.Selector{Source: "*", Metric: k.Metric, QueryForm: true, Scope: k.Scope, ID: k.ID}))
		plan.queries[qFanout] = append(plan.queries[qFanout], plannedQuery{base + "/query?" + v.Encode(), want})
	}
	for i := 0; i < labels; i++ {
		k := pick()
		pairs := k.Labels.Pairs()
		if len(pairs) == 0 {
			continue
		}
		p := pairs[len(pairs)-1]
		v := params(k)
		v.Set("label."+p.Name, p.Value)
		window(k, v)
		want := len(st.Select(monitor.Selector{
			Source: "*", Metric: k.Metric, QueryForm: true, Scope: k.Scope, ID: k.ID,
			Labels: []monitor.Label{{Name: p.Name, Value: p.Value}},
		}))
		plan.queries[qLabel] = append(plan.queries[qLabel], plannedQuery{base + "/query?" + v.Encode(), want})
	}
	plan.queries[qScrape] = []plannedQuery{{base + "/metrics", term.lines}}
	return plan
}

// blockSequence is one client's seeded walk through the mix: `blocks`
// blocks of readBlock requests, each holding exactly the mix's
// proportions in shuffled order.  A kind the plan has no queries for
// gives its share to the exact queries.
func blockSequence(rng *rand.Rand, plan *readPlan, blocks int) []plannedQueryRef {
	var kinds []int
	for k, share := range qMix {
		if len(plan.queries[k]) == 0 {
			k = qExact
		}
		for i := 0; i < share; i++ {
			kinds = append(kinds, k)
		}
	}
	seq := make([]plannedQueryRef, 0, blocks*readBlock)
	for b := 0; b < blocks; b++ {
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, k := range kinds {
			seq = append(seq, plannedQueryRef{kind: k, idx: rng.Intn(len(plan.queries[k]))})
		}
	}
	return seq
}

type plannedQueryRef struct{ kind, idx int }

var (
	tokMetric = []byte(`"metric":`)
	tokPoints = []byte(`"points":[`)
	tokTime   = []byte(`"time":`)
)

// validateQuery checks a /query body without a JSON decoder (the
// benchmark must stay a small share of process CPU): the series count,
// and within each series strictly ascending point times.
func validateQuery(body []byte, wantSeries int) (points int, err error) {
	if got := bytes.Count(body, tokMetric); got != wantSeries {
		return 0, fmt.Errorf("response holds %d series, want %d", got, wantSeries)
	}
	rest := body
	for {
		i := bytes.Index(rest, tokPoints)
		if i < 0 {
			return points, nil
		}
		rest = rest[i+len(tokPoints):]
		end := bytes.IndexByte(rest, ']')
		if end < 0 {
			return points, fmt.Errorf("unterminated points array")
		}
		series := rest[:end]
		rest = rest[end:]
		last, have := 0.0, false
		for {
			j := bytes.Index(series, tokTime)
			if j < 0 {
				break
			}
			series = series[j+len(tokTime):]
			e := bytes.IndexByte(series, ',')
			if e < 0 {
				return points, fmt.Errorf("malformed point")
			}
			t, perr := strconv.ParseFloat(string(series[:e]), 64)
			if perr != nil {
				return points, fmt.Errorf("bad point time %q", series[:e])
			}
			if have && t <= last {
				return points, fmt.Errorf("point times not ascending (%v after %v)", t, last)
			}
			last, have = t, true
			points++
		}
	}
}

// runReads drives the plan from `clients` closed-loop HTTP clients
// until the deadline passes (whole blocks only) or, when maxBlocks is
// set, until every client has sent that many blocks.
func runReads(cfg runConfig, plan *readPlan, clients int, dur time.Duration, maxBlocks int, or *oracle) *readStats {
	type clientOut struct {
		lat       [qKinds][]float64
		blockRate []float64         // requests per second of each whole block
		blockP50  [qKinds][]float64 // per-block median latency per kind
		bytes     int64
		points    int64
		ops       int64
		failed    int64
		spans     []span
	}
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		seqBlocks := 64
		if maxBlocks > 0 {
			seqBlocks = maxBlocks
		}
		seq := blockSequence(cfg.rng(int64(7000+c)), plan, seqBlocks)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 30 * time.Second}
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			var inBlock [qKinds][]float64
			var blockStart time.Time
			for i := 0; ; i++ {
				if i%readBlock == 0 {
					now := time.Now()
					if i > 0 {
						out.blockRate = append(out.blockRate, readBlock/now.Sub(blockStart).Seconds())
						for k := range inBlock {
							if len(inBlock[k]) > 0 {
								out.blockP50[k] = append(out.blockP50[k], median(inBlock[k]))
							}
							inBlock[k] = inBlock[k][:0]
						}
					}
					if (maxBlocks > 0 && i >= maxBlocks*readBlock) || (maxBlocks == 0 && now.After(deadline)) {
						return
					}
					blockStart = now
				}
				ref := seq[i%len(seq)]
				q := plan.queries[ref.kind][ref.idx]
				t0 := time.Now()
				resp, err := client.Get(q.url)
				if err == nil {
					buf.Reset()
					_, err = io.Copy(&buf, resp.Body)
					resp.Body.Close()
				}
				d := time.Since(t0)
				out.ops++
				switch {
				case err != nil:
					out.failed++
					or.failf("query %s: %v", q.url, err)
					continue
				case resp.StatusCode != http.StatusOK:
					out.failed++
					or.failf("query %s: status %d", q.url, resp.StatusCode)
					continue
				}
				if ref.kind == qScrape {
					lines := bytes.Count(buf.Bytes(), []byte{'\n'})
					if lines == 0 || (q.wantSeries > 0 && lines != q.wantSeries) {
						out.failed++
						or.failf("scrape returned %d lines, want %d", lines, q.wantSeries)
					}
				} else {
					pts, verr := validateQuery(buf.Bytes(), q.wantSeries)
					if verr != nil {
						out.failed++
						or.failf("query %s: %v", q.url, verr)
					}
					out.points += int64(pts)
				}
				out.bytes += int64(buf.Len())
				ms := float64(d) / 1e6
				out.lat[ref.kind] = append(out.lat[ref.kind], ms)
				inBlock[ref.kind] = append(inBlock[ref.kind], ms)
				if cfg.tr != nil {
					out.spans = append(out.spans, span{Layer: "query", Name: qNames[ref.kind],
						Node: fmt.Sprintf("client%d", c), Trace: int64(c)<<32 | int64(i), Start: t0, Dur: d})
				}
			}
		}(c)
	}
	wg.Wait()
	rs := &readStats{wall: time.Since(start)}
	var rates []float64
	var blockP50 [qKinds][]float64
	for c := range outs {
		for k := range rs.lat {
			rs.lat[k] = append(rs.lat[k], outs[c].lat[k]...)
			blockP50[k] = append(blockP50[k], outs[c].blockP50[k]...)
		}
		// The clients run side by side, so the service rate while one
		// client's block ran is that block's rate times the clients.
		for _, r := range outs[c].blockRate {
			rates = append(rates, r*float64(clients))
		}
		rs.bytes += outs[c].bytes
		rs.points += outs[c].points
		rs.attempted += outs[c].ops
		rs.failed += outs[c].failed
		for _, s := range outs[c].spans {
			cfg.tr.add(s)
		}
	}
	// The median across blocks, not the quiet decile the write-side
	// figures take: a loopback round trip also has fast spells (client
	// and server goroutine happening to share a core), as long and as
	// irregular as a neighbour's slow ones, and a figure from either end
	// reports how often a spell came by.
	if len(rates) > 0 {
		rs.perSecond = median(rates)
	} else if rs.wall > 0 {
		rs.perSecond = float64(rs.attempted-rs.failed) / rs.wall.Seconds()
	}
	for k := range rs.p50 {
		if len(blockP50[k]) > 0 {
			rs.p50[k] = median(blockP50[k])
		} else {
			rs.p50[k] = median(rs.lat[k])
		}
	}
	return rs
}

// readback is the read epilogue: the query mix against whatever store
// the measured phase left, served by that workload's own HTTP sink.
func readback(cfg runConfig, term terminal, or *oracle) *readStats {
	rng := cfg.rng(6000)
	plan := buildReadPlan(rng, term, 256, 32, 32)
	runtime.GC() // every read-back starts from a collected heap
	dur, maxBlocks := 5*time.Second, 0
	if cfg.short {
		maxBlocks = 1
	}
	return runReads(cfg, plan, 2, dur, maxBlocks, or)
}

// ---- replicate: ship, journal, snapshot, crash, recover -------------------

// replicaStats is what the replicate epilogue measured.
type replicaStats struct {
	wireBytesPerSample float64
	diskBytesPerSample float64
	snapshotS          []float64
	recoverS           []float64
	attempted, failed  int64
	samples            int64
	snapshotBytes      int64
	replayRecords      int64
}

// replicaSource is the push identity local (sourceless) series take on
// their way to the replica.
const replicaSource = "replica-origin"

// How many times the snapshot and the recovery are timed; the quiet
// decile of each is reported.  They are millisecond operations with an
// fsync inside: a handful of repeats would time the disk's mood.
const (
	replicaSnapshots  = 15
	replicaRecoveries = 9
)

// persistNode is a store under persist.Open with a registry that holds
// only the persistence metrics, so polling it for "WAL quiet" is cheap.
type persistNode struct {
	store *monitor.Store
	reg   *telemetry.Registry
	pm    *persist.Manager
	dir   string
}

func openPersist(dir string, store *monitor.Store) (*persistNode, error) {
	reg := telemetry.New()
	pm, err := persist.Open(dir, store, persist.Options{SnapshotInterval: time.Hour, Registry: reg})
	if err != nil {
		return nil, err
	}
	return &persistNode{store: store, reg: reg, pm: pm, dir: dir}, nil
}

// walCounts reads the WAL writer's written and dropped record counts.
func (p *persistNode) walCounts() (written, dropped int64) {
	s := snapRegistry(p.reg)
	return int64(s.value["likwid_wal_records_total"]), int64(s.value["likwid_wal_dropped_total"])
}

// quiet waits until the WAL writer has handled `want` records in all.
func (p *persistNode) quiet(want int64) bool {
	return waitFor(20*time.Second, func() bool {
		w, d := p.walCounts()
		return w+d >= want
	})
}

// storesEqual compares two stores point for point over a's key set.
func storesEqual(a, b *monitor.Store) (series, mismatched int) {
	keys := a.Keys()
	mismatched = int(absInt(int64(len(b.Keys()) - len(keys))))
	var bufA, bufB []monitor.Point
	for _, k := range keys {
		bufA = a.WindowInto(k, 0, -1, bufA)
		bufB = b.WindowInto(k, 0, -1, bufB)
		ok := len(bufA) == len(bufB)
		for i := 0; ok && i < len(bufA); i++ {
			ok = bufA[i] == bufB[i]
		}
		if !ok {
			mismatched++
		}
	}
	return len(keys), mismatched
}

// recoverTimed copies the crash image to a fresh directory, opens it
// into a fresh store and times the open (snapshot restore + WAL
// replay).  The caller compares and closes the returned node.
func recoverTimed(image, dir string, capacity int, tiers []monitor.Tier) (*persistNode, float64, error) {
	if err := copyDir(image, dir); err != nil {
		return nil, 0, err
	}
	st := monitor.NewStore(capacity, tiers...)
	runtime.GC() // as for the timed snapshots
	t0 := time.Now()
	p, err := openPersist(dir, st)
	if err != nil {
		return nil, 0, err
	}
	return p, time.Since(t0).Seconds(), nil
}

// shippable reports whether a series can make the round trip intact:
// it needs a body and a tail, finite values (ingest rejects the rest),
// and strictly ascending times — crash replay keeps only records newer
// than the newest restored point of their series, so a point sharing
// its predecessor's timestamp does not survive a restart.
func shippable(pts []monitor.Point) bool {
	for i, p := range pts {
		if math.IsNaN(p.Value) || math.IsInf(p.Value, 0) || p.Time < 0 {
			return false
		}
		if i > 0 && p.Time <= pts[i-1].Time {
			return false
		}
	}
	return true
}

// replicate is the write-side epilogue.  It ships the newest points of
// the terminal store over the v4 wire into a fresh WAL-backed receiver
// (wire and disk density of this workload's data shape), snapshots it,
// ships a tail that lands only in the WAL, copies the state directory
// as a SIGKILL would leave it, recovers the copy into a fresh store and
// checks that store against the live one point for point.
func replicate(cfg runConfig, src *monitor.Store, or *oracle) (*replicaStats, error) {
	// About 64 k points in all: up to 2048 series, and per series as
	// many of its newest points as that leaves room for (32 to 1024),
	// so a store of few series still makes a dump the CPU, not one
	// fsync, decides.
	maxSeries, total := 2048, 1<<16
	if cfg.short {
		maxSeries, total = 64, 512
	}
	states := src.DumpState()
	if len(states) == 0 {
		return nil, fmt.Errorf("terminal store is empty")
	}
	stride := 1
	if len(states) > maxSeries {
		stride = (len(states) + maxSeries - 1) / maxSeries
	}
	perSeries := total / ((len(states) + stride - 1) / stride)
	if perSeries > 1024 {
		perSeries = 1024
	}
	if floor := total / maxSeries; perSeries < floor {
		perSeries = floor
	}
	type shipped struct {
		key monitor.Key
		pts []monitor.Point
	}
	var ship []shipped
	for i := 0; i < len(states); i += stride {
		pts := states[i].Raw
		if len(pts) > perSeries {
			pts = pts[len(pts)-perSeries:]
		}
		if len(pts) < 2 || !shippable(pts) {
			continue
		}
		ship = append(ship, shipped{states[i].Key, pts})
	}
	if len(ship) == 0 {
		return nil, fmt.Errorf("terminal store holds no series with two points")
	}

	dir := filepath.Join(cfg.dir, "live")
	rstore := monitor.NewStore(2 * perSeries)
	node, err := openPersist(dir, rstore)
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = node.pm.Close()
		_ = os.RemoveAll(cfg.dir)
	}()
	h, err := monitor.NewHTTPSink("127.0.0.1:0", rstore)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	stats := &hopStats{}
	hosts := &hostMap{}
	hosts.set("replica.bench:80", h.Addr())
	tp := newTransport(hosts, stats, nil, "replica", "push")
	defer tp.close()
	push, err := monitor.NewPushSink(monitor.PushOptions{
		URL:          "http://replica.bench:80/ingest",
		FlushSamples: 2048,
		Format:       monitor.WireV4,
		Client:       &http.Client{Transport: tp, Timeout: 30 * time.Second},
		Now:          cfg.now,
		// Every real pusher names itself; a sourceless sample would be
		// read through the receiver's v1 "SOURCE/metric" shim.
		Source: replicaSource,
	})
	if err != nil {
		return nil, err
	}
	rs := &replicaStats{}
	var sent int64
	// send ships one series' points and, after every POST, waits for the
	// WAL writer to catch up: paced so the journal never drops a record.
	send := func(k monitor.Key, pts []monitor.Point) error {
		b := monitor.Batch{Collector: "replica", Samples: make([]monitor.Sample, len(pts))}
		for i, p := range pts {
			b.Samples[i] = monitor.Sample{Source: k.Source, Metric: k.Metric, Scope: k.Scope,
				ID: k.ID, Labels: k.Labels, Time: p.Time, Value: p.Value}
		}
		b.Time = pts[len(pts)-1].Time
		before := push.Pushes()
		if err := push.Write(b); err != nil {
			return err
		}
		sent += int64(len(pts))
		if push.Pushes() != before {
			node.quiet(int64(push.Sent()))
		}
		return nil
	}
	flush := func() error {
		if err := push.Flush(); err != nil {
			return err
		}
		if !node.quiet(int64(push.Sent())) {
			return fmt.Errorf("replica WAL never went quiet")
		}
		return nil
	}
	for _, s := range ship {
		if err := send(s.key, s.pts[:len(s.pts)-1]); err != nil {
			return nil, err
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	written, dropped := node.walCounts()
	rs.wireBytesPerSample = float64(stats.bytes.Load()) / float64(sent)
	if written > 0 {
		rs.diskBytesPerSample = float64(fileSize(filepath.Join(dir, "wal.log"))) / float64(written)
	}
	or.check(dropped == 0, "replica WAL dropped %d records although paced", dropped)

	for i := 0; i < replicaSnapshots; i++ {
		runtime.GC() // how many GC cycles land inside a timed dump must not be luck
		t0 := time.Now()
		if err := node.pm.Snapshot(); err != nil {
			return nil, err
		}
		rs.snapshotS = append(rs.snapshotS, time.Since(t0).Seconds())
	}
	rs.snapshotBytes = fileSize(filepath.Join(dir, "snapshot.json"))
	// The tail: one more point per series, in the WAL but in no snapshot.
	for _, s := range ship {
		if err := send(s.key, s.pts[len(s.pts)-1:]); err != nil {
			return nil, err
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	rs.samples = sent
	rs.replayRecords = int64(len(ship))
	image := filepath.Join(cfg.dir, "image")
	if err := copyDir(dir, image); err != nil {
		return nil, err
	}
	for i := 0; i < replicaRecoveries; i++ {
		rec, secs, err := recoverTimed(image, filepath.Join(cfg.dir, fmt.Sprintf("recovered%d", i)), 2*perSeries, nil)
		if err != nil {
			return nil, err
		}
		rs.recoverS = append(rs.recoverS, secs)
		if i == 0 {
			series, bad := storesEqual(rstore, rec.store)
			rs.attempted += int64(series)
			rs.failed += int64(bad)
			or.check(bad == 0, "replica: %d of %d recovered series differ from the live store", bad, series)
		}
		_ = rec.pm.Close()
	}
	// And the live replica must hold exactly what was shipped.
	bad := 0
	for _, s := range ship {
		k := s.key
		if k.Source == "" {
			k.Source = replicaSource
		}
		pts := rstore.Window(k, 0, -1)
		ok := len(pts) == len(s.pts)
		for i := 0; ok && i < len(pts); i++ {
			ok = pts[i] == s.pts[i]
		}
		if !ok {
			bad++
		}
	}
	rs.attempted += int64(len(ship)) + stats.posts.Load()
	rs.failed += int64(bad) + stats.non2xx.Load()
	or.check(bad == 0, "replica: %d of %d shipped series differ from the source", bad, len(ship))
	return rs, nil
}
