package main

import (
	"time"
)

// The box this runs on is a small VM whose memory system is shared with
// neighbours: a fixed cache-resident loop repeats within 5 %, a fixed
// loop of cache misses takes anything from 1x to 2.5x, in clusters of
// seconds.  Add the stolen vCPU milliseconds, the fsync that waits on
// someone else's write-back, the GC cycle that lands inside one request.
// All of it only ever adds time, and all of it comes and goes within a
// run.  So every rate and every timing the benchmark reports is
// computed per window of the measured phase, and the figure reported is
// the quiet decile across windows — the 10th percentile of a cost, the
// 90th of a rate: what the system does when the box leaves it alone,
// which is the part a code change moves.  A whole-run mean or a
// whole-run p90 would carry every neighbour's burst.  The query metrics
// are the exception (runReads): their round trips have fast spells too,
// and take the median across blocks.  (Across eight
// runs of fleet-steady the spread of freshness p50 was 19 % taking the
// median across windows, 16 % at the quartile, 12 % at the decile.)

// quietEnd is how far from the quiet end of the per-window figures the
// reported value sits.
const quietEnd = 0.10

// quietQuantile is the value near the quiet end of per-window figures:
// the 10th percentile when lower is better, the 90th when higher is.
func quietQuantile(windows []float64, higherBetter bool) float64 {
	if higherBetter {
		return quantile(windows, 1-quietEnd)
	}
	return quantile(windows, quietEnd)
}

// progressPoint is one reading of the window sampler.
type progressPoint struct {
	at  time.Time
	cpu time.Duration
	n   int64
}

// windowSampler reads process CPU time and a workload's completed-
// sample counter on a fixed cadence while a measured phase runs.
type windowSampler struct {
	every    time.Duration
	progress func() int64         // samples completed so far
	exclude  func() time.Duration // CPU time that is the generator's, not the system's
	stopCh   chan struct{}
	doneCh   chan struct{}
	points   []progressPoint
}

func startSampler(every time.Duration, progress func() int64, exclude func() time.Duration) *windowSampler {
	s := &windowSampler{every: every, progress: progress, exclude: exclude,
		stopCh: make(chan struct{}), doneCh: make(chan struct{})}
	s.read()
	go func() {
		defer close(s.doneCh)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
				s.read()
			}
		}
	}()
	return s
}

func (s *windowSampler) read() {
	cpu := cpuTime()
	if s.exclude != nil {
		cpu -= s.exclude()
	}
	s.points = append(s.points, progressPoint{time.Now(), cpu, s.progress()})
}

// stop ends sampling and returns, per window in which samples
// completed, the CPU microseconds per sample and the samples per
// second.
func (s *windowSampler) stop() (cpuUs, perSecond []float64) {
	close(s.stopCh)
	<-s.doneCh
	s.read()
	for i := 1; i < len(s.points); i++ {
		a, b := s.points[i-1], s.points[i]
		dn, dt := b.n-a.n, b.at.Sub(a.at)
		if dn <= 0 || dt < s.every/2 {
			continue
		}
		cpuUs = append(cpuUs, float64(b.cpu-a.cpu)/1e3/float64(dn))
		perSecond = append(perSecond, float64(dn)/dt.Seconds())
	}
	return cpuUs, perSecond
}

// minWindows is how many windows a windowed figure needs before it is
// preferred over the whole-phase one (the -short self-test runs are
// shorter than that).
const minWindows = 4

// windowedOr returns the quiet decile of the windows, or the
// whole-phase value when the phase was too short to window.
func windowedOr(windows []float64, higherBetter bool, whole float64) float64 {
	if len(windows) >= minWindows {
		return quietQuantile(windows, higherBetter)
	}
	return whole
}

// chunkedQuantile splits vs (in time order) into contiguous chunks of
// at least minChunk values, takes the q-quantile of each and returns
// the quiet decile across chunks; with too few values for minWindows
// chunks it is the plain quantile.  vs are costs: lower is better.
func chunkedQuantile(vs []float64, q float64, minChunk int) float64 {
	chunks := len(vs) / minChunk
	if chunks > 32 {
		chunks = 32
	}
	if chunks < minWindows {
		return quantile(vs, q)
	}
	per := make([]float64, 0, chunks)
	for c := 0; c < chunks; c++ {
		lo, hi := c*len(vs)/chunks, (c+1)*len(vs)/chunks
		per = append(per, quantile(vs[lo:hi], q))
	}
	return quietQuantile(per, false)
}
