// Package marker implements the likwid-perfCtr marker API (§II-A): named
// code regions whose event counts accumulate across repeated executions,
// measured per thread on the core the thread runs on.
//
// It is the Go rendition of the C API in the paper:
//
//	likwid_markerInit(numberOfThreads, numberOfRegions)
//	id := likwid_markerRegisterRegion("Main")
//	likwid_markerStartRegion(threadID, coreID)
//	likwid_markerStopRegion(threadID, coreID, id)
//	likwid_markerClose()
//
// Nesting or partial overlap of regions on one thread is rejected, and
// counts accumulate automatically over repeated Start/Stop pairs of the
// same region, exactly as documented.
package marker

import (
	"fmt"
	"strings"

	"likwid/internal/perfctr"
)

// Region accumulates measurements of one named code region.
type Region struct {
	Name string
	// Counts per event per collector cpu column.
	Counts map[string][]float64
	// Time per cpu column in seconds (cycle-derived).
	Time []float64
	// Calls counts Start/Stop pairs accumulated.
	Calls int
}

// Marker is one marker-API session bound to a running collector.
type Marker struct {
	col      *perfctr.Collector
	clockHz  float64
	nThreads int
	regions  []*Region
	byName   map[string]int
	// open[threadID] is the Start snapshot, nil when no region is open.
	open []*openState
}

type openState struct {
	coreID   int
	snapshot perfctr.Results
}

// New creates a marker session for at most nThreads application threads
// using the given (already configured) collector.
func New(col *perfctr.Collector, clockHz float64, nThreads int) (*Marker, error) {
	if nThreads < 1 {
		return nil, fmt.Errorf("marker: need at least one thread, got %d", nThreads)
	}
	return &Marker{
		col:      col,
		clockHz:  clockHz,
		nThreads: nThreads,
		byName:   map[string]int{},
		open:     make([]*openState, nThreads),
	}, nil
}

// RegisterRegion names a region and returns its ID.  Registering the same
// name twice returns the same ID, enabling accumulation across call sites.
func (m *Marker) RegisterRegion(name string) int {
	if id, ok := m.byName[name]; ok {
		return id
	}
	id := len(m.regions)
	cols := len(m.col.CPUs())
	r := &Region{
		Name:   name,
		Counts: map[string][]float64{},
		Time:   make([]float64, cols),
	}
	for _, ev := range m.col.EventNames() {
		r.Counts[ev] = make([]float64, cols)
	}
	m.regions = append(m.regions, r)
	m.byName[name] = id
	return id
}

// StartRegion opens a region on a thread running on coreID.
func (m *Marker) StartRegion(threadID, coreID int) error {
	if threadID < 0 || threadID >= m.nThreads {
		return fmt.Errorf("marker: thread %d out of range [0,%d)", threadID, m.nThreads)
	}
	if m.open[threadID] != nil {
		return fmt.Errorf("marker: thread %d already has an open region (nesting is not allowed)", threadID)
	}
	if m.colIndex(coreID) < 0 {
		return fmt.Errorf("marker: core %d is not measured by the collector (cpus %v)", coreID, m.col.CPUs())
	}
	m.open[threadID] = &openState{coreID: coreID, snapshot: m.col.Current()}
	return nil
}

// StopRegion closes the open region of a thread, attributing the counter
// deltas of the thread's core to the region.
func (m *Marker) StopRegion(threadID, coreID, regionID int) error {
	if threadID < 0 || threadID >= m.nThreads {
		return fmt.Errorf("marker: thread %d out of range [0,%d)", threadID, m.nThreads)
	}
	st := m.open[threadID]
	if st == nil {
		return fmt.Errorf("marker: thread %d has no open region", threadID)
	}
	if st.coreID != coreID {
		return fmt.Errorf("marker: region started on core %d but stopped on core %d", st.coreID, coreID)
	}
	if regionID < 0 || regionID >= len(m.regions) {
		return fmt.Errorf("marker: unknown region id %d", regionID)
	}
	m.open[threadID] = nil

	now := m.col.Current()
	col := m.colIndex(coreID)
	region := m.regions[regionID]
	for ev, vals := range now.Counts {
		delta := vals[col] - st.snapshot.Counts[ev][col]
		if delta > 0 {
			region.Counts[ev][col] += delta
		}
	}
	if cyc, ok := now.Counts["CPU_CLK_UNHALTED_CORE"]; ok && m.clockHz > 0 {
		dt := (cyc[col] - st.snapshot.Counts["CPU_CLK_UNHALTED_CORE"][col]) / m.clockHz
		if dt > 0 {
			region.Time[col] += dt
		}
	}
	region.Calls++
	return nil
}

// Close rejects dangling regions.
func (m *Marker) Close() error {
	for tid, st := range m.open {
		if st != nil {
			return fmt.Errorf("marker: thread %d closed with an open region", tid)
		}
	}
	return nil
}

// Regions returns the accumulated regions in registration order.
func (m *Marker) Regions() []*Region { return m.regions }

func (m *Marker) colIndex(cpu int) int {
	for i, c := range m.col.CPUs() {
		if c == cpu {
			return i
		}
	}
	return -1
}

// Report renders all regions in the paper's marker-mode format: a
// "Region:" banner per region followed by the event and metric tables,
// each column's "time" being the region's time on that core.
func (m *Marker) Report(group *perfctr.GroupDef) string {
	var b strings.Builder
	for _, region := range m.regions {
		fmt.Fprintf(&b, "Region: %s\n", region.Name)
		res := perfctr.Results{
			CPUs:   m.col.CPUs(),
			Events: m.col.EventNames(),
			Counts: region.Counts,
		}
		b.WriteString(perfctr.ReportTimes(res, group, m.clockHz, region.Time))
	}
	return b.String()
}
