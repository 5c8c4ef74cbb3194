package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"likwid/internal/monitor"
)

// recoverShape sizes recover-restart.  The phases are fixed work, not
// fixed time, so every snapshot dumps and every recovery replays the
// same number of points on every run; -seconds scales the round count.
type recoverShape struct {
	sources, metrics, ids int
	// ring is the raw capacity per series and the ticks journaled per
	// round: after the first round every ring is full, so every round's
	// snapshot is the same amount of work.
	ring       int
	rounds     int // journal `ring` ticks, then timed snapshots
	snapshots  int // timed snapshots per round
	tail       int // ticks journaled after the last snapshot: WAL only
	recoveries int // timed recoveries of the one crash image
}

func (s recoverShape) series() int { return s.sources * s.metrics * s.ids }

func recoverShapeFor(cfg runConfig) recoverShape {
	if cfg.short {
		return recoverShape{sources: 10, metrics: 5, ids: 4, ring: 4, rounds: 2, snapshots: 1, tail: 2, recoveries: 1}
	}
	rounds := int(cfg.seconds/2 + 0.5)
	if rounds < 3 {
		rounds = 3
	}
	return recoverShape{sources: 200, metrics: 25, ids: 4, ring: 16, rounds: rounds, snapshots: 3, tail: 8, recoveries: 5}
}

// walChunk is how many samples are appended between waits for the WAL
// writer: half its 4096-record queue, so the journal never drops.
const walChunk = 2048

type recoverEnv struct {
	cfg   runConfig
	shape recoverShape
	live  *persistNode
	http  *monitor.HTTPSink
	or    *oracle
	tmpl  []monitor.Sample
	gen   *seriesGen

	journaled atomic.Int64 // samples handed to the journaled store so far
	nextTick  int

	image string // the crash image, kept for the probes
}

func setupRecover(cfg runConfig) (env, error) {
	e := &recoverEnv{cfg: cfg, shape: recoverShapeFor(cfg), or: &oracle{}}
	sh := e.shape
	for s := 0; s < sh.sources; s++ {
		for m := 0; m < sh.metrics; m++ {
			for id := 0; id < sh.ids; id++ {
				e.tmpl = append(e.tmpl, monitor.Sample{
					Source: fmt.Sprintf("node%03d", s), Metric: fmt.Sprintf("metric_%02d", m),
					Scope: monitor.ScopeThread, ID: id,
				})
			}
		}
	}
	e.gen = newSeriesGen(cfg.rng(400), len(e.tmpl))
	store := monitor.NewStore(sh.ring)
	node, err := openPersist(filepath.Join(cfg.dir, "live"), store)
	if err != nil {
		return nil, err
	}
	e.live = node
	h, err := monitor.NewHTTPSink("127.0.0.1:0", store)
	if err != nil {
		e.close()
		return nil, err
	}
	e.http = h
	// The first tick creates every series and opens the journal; the
	// sink's /metrics snapshot is filled by a Write, so hand it that tick.
	if _, _, err := e.journalTick(); err != nil {
		e.close()
		return nil, err
	}
	if err := h.Write(monitor.Batch{Collector: "journal", Time: timeOf(0), Samples: e.sampleTick(0)}); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// journalTick appends one tick of every series in WAL-sized chunks,
// waiting for the writer after each.  It returns the time spent inside
// AppendBatch and the time until the whole tick was durable.
func (e *recoverEnv) journalTick() (appendDur, durable time.Duration, err error) {
	t := e.nextTick
	e.nextTick++
	samples := e.sampleTick(t)
	at := timeOf(t)
	t0 := time.Now()
	for off := 0; off < len(samples); off += walChunk {
		end := off + walChunk
		if end > len(samples) {
			end = len(samples)
		}
		a0 := time.Now()
		e.live.store.AppendBatch(monitor.Batch{Collector: "journal", Time: at, Samples: samples[off:end]})
		appendDur += time.Since(a0)
		if !e.live.quiet(e.journaled.Add(int64(end - off))) {
			return 0, 0, fmt.Errorf("WAL writer never caught up at tick %d", t)
		}
	}
	return appendDur, time.Since(t0), nil
}

// sampleTick builds tick t of every series.
func (e *recoverEnv) sampleTick(t int) []monitor.Sample {
	samples := make([]monitor.Sample, len(e.tmpl))
	copy(samples, e.tmpl)
	at := timeOf(t)
	for i := range samples {
		samples[i].Time = at
		samples[i].Value = e.gen.value(i, t)
	}
	return samples
}

func (e *recoverEnv) oracle() *oracle { return e.or }

func (e *recoverEnv) terminal() terminal {
	return terminal{store: e.live.store, addr: e.http.Addr(), lines: e.shape.series()}
}

func (e *recoverEnv) close() {
	if e.http != nil {
		_ = e.http.Close()
		e.http = nil
	}
	if e.live != nil {
		_ = e.live.pm.Close()
		e.live = nil
	}
}

func (e *recoverEnv) main(cfg runConfig) (*mainStats, error) {
	sh := e.shape
	ms := &mainStats{layer: map[string]float64{}}
	var appendTotal, durableTotal time.Duration
	journal := func(ticks int) error {
		for i := 0; i < ticks; i++ {
			a, d, err := e.journalTick()
			if err != nil {
				return err
			}
			appendTotal += a
			durableTotal += d
			ms.tickUs = append(ms.tickUs, float64(a)/1e3)
			ms.freshMs = append(ms.freshMs, float64(d)/1e6)
		}
		return nil
	}
	t0, cpu0 := time.Now(), cpuTime()
	var m0 memCounters
	m0.read()
	before := e.journaled.Load()
	sampler := startSampler(250*time.Millisecond, e.journaled.Load, nil)

	// Rounds: journal a ring's worth of ticks, then a timed snapshot.
	var snapBytes int64
	var snapAt []time.Time
	for r := 0; r < sh.rounds; r++ {
		if err := journal(sh.ring); err != nil {
			return nil, err
		}
		ms.walBytes += fileSize(filepath.Join(e.live.dir, "wal.log"))
		// The first snapshot of a round also rotates away a full WAL;
		// the repeats dump the same rings again.
		for i := 0; i < sh.snapshots; i++ {
			runtime.GC() // how many GC cycles land inside a timed dump must not be luck
			s0 := time.Now()
			if err := e.live.pm.Snapshot(); err != nil {
				return nil, err
			}
			ms.snapshotS = append(ms.snapshotS, time.Since(s0).Seconds())
			snapAt = append(snapAt, s0)
		}
		snapBytes = fileSize(filepath.Join(e.live.dir, "snapshot.json"))
	}
	written, dropped := e.live.walCounts()
	ms.walRecords, ms.walDropped = written, dropped // the set-up tick's records sit in round one's log too
	snapPoints := int64(sh.series() * sh.ring)

	// The tail exists only in the WAL.
	if err := journal(sh.tail); err != nil {
		return nil, err
	}
	tail := int64(sh.tail * sh.series())
	cpuWin, rateWin := sampler.stop()
	ms.cpuUsWin, ms.rateWin = cpuWin, rateWin

	// The crash: copy the directory under the running manager.  Then a
	// fresh process, several times over, opens what the dead one left.
	e.image = filepath.Join(cfg.dir, "image")
	if err := copyDir(e.live.dir, e.image); err != nil {
		return nil, err
	}
	var series, bad int
	var restored int64
	for i := 0; i < sh.recoveries; i++ {
		rec, secs, err := recoverTimed(e.image, filepath.Join(cfg.dir, fmt.Sprintf("recovered%d", i)), sh.ring, nil)
		if err != nil {
			return nil, err
		}
		ms.recoverS = append(ms.recoverS, secs)
		cfg.tr.add(span{Layer: "persist", Name: "recover", Node: "recv", Trace: int64(i),
			Start: time.Now().Add(-time.Duration(secs * 1e9)), Dur: time.Duration(secs * 1e9)})
		if i == 0 {
			series, bad = storesEqual(e.live.store, rec.store)
			for _, k := range rec.store.Keys() {
				restored += int64(rec.store.Len(k))
			}
		}
		_ = rec.pm.Close()
	}
	ms.wall, ms.cpu = time.Since(t0), cpuTime()-cpu0
	var m1 memCounters
	m1.read()
	ms.mem = m1.sub(m0)

	e.or.check(bad == 0, "%d of %d recovered series differ from the live store", bad, series)
	e.or.check(series == sh.series(), "live store holds %d series, generated %d", series, sh.series())
	_, droppedNow := e.live.walCounts()
	e.or.check(droppedNow == 0, "WAL dropped %d records although paced", droppedNow)

	ms.samples = e.journaled.Load() - before
	ms.generated = snapPoints // what the live rings hold: the crash must lose none of it
	ms.delivered = restored
	ms.attempted = ms.samples + int64(series)
	ms.failed = absInt(ms.generated-ms.delivered) + int64(bad)

	n := float64(ms.samples)
	recoverS := quietQuantile(ms.recoverS, false)
	ms.layer["store.append_journaled_ns_per_sample"] = float64(appendTotal) / n
	ms.layer["persist.wal_us_per_sample"] = float64(durableTotal-appendTotal) / 1e3 / n
	snap := snapRegistry(e.live.reg)
	ms.layer["persist.wal_fsyncs"] = snap.value["likwid_wal_fsyncs_total"]
	if c := snap.count["likwid_wal_fsync_seconds"]; c > 0 {
		ms.layer["persist.wal_fsync_mean_ms"] = snap.sum["likwid_wal_fsync_seconds"] * 1e3 / float64(c)
	}
	if written+dropped > 0 {
		ms.layer["persist.wal_dropped_frac"] = float64(dropped) / float64(written+dropped)
	}
	ms.layer["persist.snapshot_bytes_per_sample"] = float64(snapBytes) / float64(snapPoints)
	if cfg.tr != nil {
		var snapTotal, recTotal float64
		for i, s := range ms.snapshotS {
			snapTotal += s
			cfg.tr.add(span{Layer: "persist", Name: "snapshot", Node: "recv", Trace: int64(i), Start: snapAt[i], Dur: time.Duration(s * 1e9)})
		}
		for _, s := range ms.recoverS {
			recTotal += s
		}
		cfg.tr.addBusy("store", appendTotal)
		cfg.tr.addBusy("persist", durableTotal-appendTotal+time.Duration((snapTotal+recTotal)*1e9))
		// Split the recovery: open a copy holding only the snapshot,
		// and charge the rest of recover_s to the replay.
		snapOnly := filepath.Join(cfg.dir, "snaponly")
		if err := copyDir(e.image, snapOnly); err == nil {
			_ = os.Remove(filepath.Join(snapOnly, "wal.log"))
			_ = os.Remove(filepath.Join(snapOnly, "wal.prev"))
			if r2, s2, err := recoverTimed(snapOnly, filepath.Join(cfg.dir, "snaponly-open"), sh.ring, nil); err == nil {
				ms.layer["persist.restore_snapshot_s"] = s2
				if recoverS > s2 {
					ms.layer["persist.replay_us_per_record"] = (recoverS - s2) * 1e6 / float64(tail)
				}
				_ = r2.pm.Close()
			}
		}
	}
	return ms, nil
}

func (e *recoverEnv) probes(cfg runConfig, ms *mainStats) {
	l := ms.layer
	n := walChunk / 4
	if n > len(e.tmpl) {
		n = len(e.tmpl)
	}
	plain, _, _ := probeAppend(filepath.Join(cfg.dir, "probe-wal"), e.tmpl[:n])
	l["store.append_ns_per_sample"] = plain
	l["telemetry.snapshot_us"], l["telemetry.self_collect_us"] = probeTelemetry(e.live.reg)
}
