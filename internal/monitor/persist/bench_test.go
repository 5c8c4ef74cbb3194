package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"likwid/internal/benchreport"
	"likwid/internal/monitor"
)

// The WAL layer benchmarks, at the codec benchmarks' two shapes: one
// journaled batch is either wide (512 series × 1 point, a receiver's
// steady state — a frame is mostly identity) or deep (8 series × 512
// points, a catch-up flush — a frame is mostly bit-packed columns).
// Each reports ns, B and allocs per sample.

func benchBatch(b *testing.B, shape string) []monitor.Sample {
	b.Helper()
	labels, err := monitor.MakeLabels(map[string]string{"cluster": "emmy", "job": "lbm"})
	if err != nil {
		b.Fatal(err)
	}
	series, ticks := 512, 1
	if shape == "deep" {
		series, ticks = 8, 512
	}
	out := make([]monitor.Sample, 0, series*ticks)
	for s := 0; s < series; s++ {
		for tick := 0; tick < ticks; tick++ {
			out = append(out, monitor.Sample{
				Source: "agent0", Metric: fmt.Sprintf("metric_%02d", s/8), Scope: monitor.ScopeThread, ID: s % 8,
				Labels: labels, Time: float64(tick+1) * 0.05, Value: float64(1000 + s + tick/8),
			})
		}
	}
	return out
}

// BenchmarkWALAppend is what one journaled batch costs up to the disk:
// the appender's RecordBatch (a copy into the queue under a mutex), then
// the writer's share — swap, encode as one v4 frame, CRC, write(2).  The
// fsync is left out: it is the disk's cost, not the code's, and bench/
// reports it as persist.wal_fsync_mean_ms.
func BenchmarkWALAppend(b *testing.B) {
	for _, shape := range []string{"wide", "deep"} {
		b.Run(shape, func(b *testing.B) {
			batch := benchBatch(b, shape)
			f, err := os.OpenFile(filepath.Join(b.TempDir(), "wal.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			w := &wal{limit: len(batch), wake: make(chan struct{}, 1), f: f}
			ops := 0
			benchreport.PerSample(b, len(batch), func() {
				w.RecordBatch(batch)
				w.pending, w.drained = w.drained[:0], w.pending // the writer's swap
				if err := w.write(w.drained); err != nil {
					b.Fatal(err)
				}
				if ops++; ops%256 == 0 { // keep the file small
					if err := f.Truncate(0); err != nil {
						b.Fatal(err)
					}
				}
			})
			if d := w.dropped.Load(); d != 0 {
				b.Fatalf("queue dropped %d points", d)
			}
		})
	}
}

// BenchmarkWALReplay is recovery's inner loop: 64 frames read, CRC
// checked, decoded through the wire codec and appended to a store that
// already holds the series (the snapshot restored them).
func BenchmarkWALReplay(b *testing.B) {
	for _, shape := range []string{"wide", "deep"} {
		b.Run(shape, func(b *testing.B) {
			const frames = 64
			batch := benchBatch(b, shape)
			path := filepath.Join(b.TempDir(), "wal.log")
			f, err := os.Create(path)
			if err != nil {
				b.Fatal(err)
			}
			w := &wal{f: f}
			for i := 0; i < frames; i++ {
				if err := w.write(batch); err != nil {
					b.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				b.Fatal(err)
			}
			st := monitor.NewStore(1024)
			apply := func(samples []monitor.Sample) { st.AppendBatch(monitor.Batch{Samples: samples}) }
			benchreport.PerSample(b, frames*len(batch), func() {
				points, truncated, err := replayWAL(path, apply, func() { b.Fatal("invalid frame") })
				if err != nil || truncated != 0 || points != frames*len(batch) {
					b.Fatalf("replay = %d points, %d truncated, err %v", points, truncated, err)
				}
			})
		})
	}
}
