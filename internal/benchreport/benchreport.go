// Package benchreport is the layer benchmarks' shared yardstick: cost
// per sample.  The pipeline's stages handle very different amounts of
// work per operation (one point, one 512-sample flush, one 4096-point
// WAL drain), so ns/op and allocs/op do not compare across them; ns, B
// and allocs per sample do, and their sum over the stages is what the
// end-to-end harness in bench/ measures as cpu_us_per_sample.
package benchreport

import (
	"runtime"
	"testing"
)

// PerSample runs op b.N times — after two untimed warm-up calls, so
// every scratch buffer is grown, both halves of a double-buffered queue
// included, and a `-benchtime 1x` smoke reports the steady state — and
// reports ns/sample, B/sample and allocs/sample next to the usual per-op
// columns.  samplesPerOp is how many samples one op handles.
func PerSample(b *testing.B, samplesPerOp int, op func()) {
	b.Helper()
	op()
	op()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(samplesPerOp)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/sample")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/sample")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/sample")
}
