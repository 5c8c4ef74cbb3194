package machine

// Canonical hardware-event kinds produced by the execution engine.
// Workloads express their per-element behaviour in these keys; the
// synthesis table below translates them into the architecture-specific
// event names that perfctr programs into counters, so the same workload
// measures correctly on every modeled processor.
type Ev int

// Canonical events.  Core-scope events are delivered to the hardware thread
// they occur on; socket-scope events (L3, memory controller) are delivered
// once per socket to the shared uncore counters.
const (
	EvInstr Ev = iota
	EvCycles
	EvCyclesRef
	EvFlopsPackedDP // packed double-precision SSE instructions
	EvFlopsScalarDP
	EvFlopsPackedSP
	EvFlopsScalarSP
	EvLoads
	EvStores
	EvBranches
	EvBranchMisses
	EvTLBMisses
	EvL1LinesIn
	EvL1LinesOut
	EvL2LinesIn
	EvL2LinesOut
	// Socket scope from here on.
	EvL3LinesIn
	EvL3LinesOut
	EvL3Hits
	EvL3Misses
	EvMemReadLines
	EvMemWriteLines
	evCount
)

// SocketScope reports whether the event is counted per socket (uncore)
// rather than per hardware thread.
func (e Ev) SocketScope() bool { return e >= EvL3LinesIn }

// Counts is a canonical event vector, per element or per slice: one
// float64 per Ev, indexed by the Ev itself, so the core-scope keys come
// first and the socket-scope keys run from EvL3LinesIn to the end.  It is
// a fixed-size array, not a map: a keyed literal such as
// Counts{EvInstr: 3, EvFlopsPackedDP: 1} leaves every other event at zero,
// and the engine accumulates and delivers one without allocating.
type Counts [evCount]float64

// Term contributes Weight × canonical-count to an architectural event.
type Term struct {
	Key    Ev
	Weight float64
}

// synthesis maps architectural event names to linear combinations of
// canonical events.  Event names are unique across vendor families, so one
// table serves every architecture; New resolves each event an architecture
// defines to its terms once, keyed by the counter encoding.
//
// Deliberate fidelity notes:
//   - Nehalem's FP_COMP_OPS_EXE_SSE_FP_PACKED counts packed ops of *both*
//     precisions, exactly the documented inaccuracy of the real FLOPS
//     groups on that core.
//   - K10's RETIRED_SSE_OPERATIONS_* count FLOPs, not instructions, hence
//     the 2×/4× weights.
var synthesis = map[string][]Term{
	// Unified across vendors.
	"INSTR_RETIRED_ANY":       {{EvInstr, 1}},
	"CPU_CLK_UNHALTED_CORE":   {{EvCycles, 1}},
	"CPU_CLK_UNHALTED_REF":    {{EvCyclesRef, 1}},
	"BR_INST_RETIRED_ANY":     {{EvBranches, 1}},
	"BR_INST_RETIRED_MISPRED": {{EvBranchMisses, 1}},
	"DTLB_MISSES_ANY":         {{EvTLBMisses, 1}},

	// Intel Core 2 / Atom.
	"SIMD_COMP_INST_RETIRED_PACKED_DOUBLE": {{EvFlopsPackedDP, 1}},
	"SIMD_COMP_INST_RETIRED_SCALAR_DOUBLE": {{EvFlopsScalarDP, 1}},
	"SIMD_COMP_INST_RETIRED_PACKED_SINGLE": {{EvFlopsPackedSP, 1}},
	"SIMD_COMP_INST_RETIRED_SCALAR_SINGLE": {{EvFlopsScalarSP, 1}},
	"L1D_REPL":                             {{EvL1LinesIn, 1}},
	"L1D_M_EVICT":                          {{EvL1LinesOut, 1}},
	"L1D_ALL_REF":                          {{EvLoads, 1}, {EvStores, 1}},
	"L2_LINES_IN_ANY":                      {{EvL2LinesIn, 1}},
	"L2_LINES_OUT_ANY":                     {{EvL2LinesOut, 1}},
	"L2_RQSTS_REFERENCES":                  {{EvL1LinesIn, 1}, {EvL1LinesOut, 1}},
	"L2_RQSTS_MISS":                        {{EvL2LinesIn, 1}},
	"BUS_TRANS_MEM_ALL":                    {{EvMemReadLines, 1}, {EvMemWriteLines, 1}},
	"INST_RETIRED_LOADS":                   {{EvLoads, 1}},
	"INST_RETIRED_STORES":                  {{EvStores, 1}},

	// Intel Pentium M.
	"EMON_SSE_SSE2_COMP_INST_RETIRED_PACKED_DOUBLE": {{EvFlopsPackedDP, 1}},
	"EMON_SSE_SSE2_COMP_INST_RETIRED_SCALAR_DOUBLE": {{EvFlopsScalarDP, 1}},
	"EMON_SSE_SSE2_COMP_INST_RETIRED_PACKED_SINGLE": {{EvFlopsPackedSP, 1}},
	"EMON_SSE_SSE2_COMP_INST_RETIRED_SCALAR_SINGLE": {{EvFlopsScalarSP, 1}},
	"DCU_LINES_IN": {{EvL1LinesIn, 1}},

	// Intel Nehalem / Westmere core.
	"FP_COMP_OPS_EXE_SSE_FP_PACKED":        {{EvFlopsPackedDP, 1}, {EvFlopsPackedSP, 1}},
	"FP_COMP_OPS_EXE_SSE_FP_SCALAR":        {{EvFlopsScalarDP, 1}, {EvFlopsScalarSP, 1}},
	"FP_COMP_OPS_EXE_SSE_SINGLE_PRECISION": {{EvFlopsPackedSP, 1}, {EvFlopsScalarSP, 1}},
	"FP_COMP_OPS_EXE_SSE_DOUBLE_PRECISION": {{EvFlopsPackedDP, 1}, {EvFlopsScalarDP, 1}},
	"MEM_INST_RETIRED_LOADS":               {{EvLoads, 1}},
	"MEM_INST_RETIRED_STORES":              {{EvStores, 1}},

	// Intel Nehalem / Westmere uncore.
	"UNC_L3_LINES_IN_ANY":      {{EvL3LinesIn, 1}},
	"UNC_L3_LINES_OUT_ANY":     {{EvL3LinesOut, 1}},
	"UNC_L3_HITS_ANY":          {{EvL3Hits, 1}},
	"UNC_L3_MISS_ANY":          {{EvL3Misses, 1}},
	"UNC_QMC_NORMAL_READS_ANY": {{EvMemReadLines, 1}},
	"UNC_QMC_WRITES_FULL_ANY":  {{EvMemWriteLines, 1}},

	// AMD K8 / K10 core.
	"RETIRED_SSE_OPERATIONS_PACKED_DOUBLE": {{EvFlopsPackedDP, 2}},
	"RETIRED_SSE_OPERATIONS_SCALAR_DOUBLE": {{EvFlopsScalarDP, 1}},
	"RETIRED_SSE_OPERATIONS_PACKED_SINGLE": {{EvFlopsPackedSP, 4}},
	"RETIRED_SSE_OPERATIONS_SCALAR_SINGLE": {{EvFlopsScalarSP, 1}},
	"DATA_CACHE_ACCESSES":                  {{EvLoads, 1}, {EvStores, 1}},
	"DATA_CACHE_REFILLS_ALL":               {{EvL1LinesIn, 1}},
	"DATA_CACHE_EVICTED_ALL":               {{EvL1LinesOut, 1}},
	"L2_FILL_ALL":                          {{EvL2LinesIn, 1}},
	"L2_WRITEBACK_ALL":                     {{EvL2LinesOut, 1}},
	"L2_REQUESTS_ALL":                      {{EvL1LinesIn, 1}, {EvL1LinesOut, 1}},
	"L2_MISSES_ALL":                        {{EvL2LinesIn, 1}},
	"LS_DISPATCH_LOADS":                    {{EvLoads, 1}},
	"LS_DISPATCH_STORES":                   {{EvStores, 1}},

	// AMD K10 northbridge (socket scope).
	"UNC_L3_READ_REQUESTS_ALL": {{EvL3Hits, 1}, {EvL3Misses, 1}},
	"UNC_L3_MISSES_ALL":        {{EvL3Misses, 1}},
	"UNC_DRAM_ACCESSES_READS":  {{EvMemReadLines, 1}},
	"UNC_DRAM_ACCESSES_WRITES": {{EvMemWriteLines, 1}},
}

// evaluate computes an architectural event's delta, given its synthesis
// terms, from a canonical vector.  The terms are summed in table order.
func evaluate(terms []Term, deltas *Counts) float64 {
	var sum float64
	for _, t := range terms {
		sum += t.Weight * deltas[t.Key]
	}
	return sum
}
