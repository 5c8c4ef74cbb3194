// Package msr simulates the Linux "msr" kernel module: one device file per
// hardware thread through which model-specific registers are read and
// written, exactly how likwid-perfCtr and likwid-features program real
// hardware (the paper, §II-A: "likwid-perfCtr uses the Linux msr module to
// modify the MSRs from user space").
//
// The register map per architecture mirrors the silicon:
//
//   - Intel core counters: IA32_PERFEVTSELx/IA32_PMCx, the fixed counters
//     IA32_FIXED_CTRx with IA32_FIXED_CTR_CTRL, IA32_PERF_GLOBAL_CTRL, and
//     IA32_MISC_ENABLE (prefetcher and feature control).
//   - Nehalem/Westmere uncore: a per-socket block (MSR_UNCORE_*) that is
//     shared state — every core of a socket sees the same uncore registers.
//     That sharing is what makes socket locks necessary in perfctr.
//   - AMD: four PERFEVTSEL/PERFCTR pairs in the 0xC001_00xx range; on K10
//     the northbridge counters are likewise a per-socket shared block.
package msr

import (
	"fmt"
	"sync"

	"likwid/internal/hwdef"
)

// Register addresses (Intel SDM / AMD BKDG numbering).
const (
	IA32PerfEvtSel0   = 0x186
	IA32PMC0          = 0x0C1
	IA32FixedCtr0     = 0x309
	IA32FixedCtrCtrl  = 0x38D
	IA32PerfGlobalCtl = 0x38F
	IA32MiscEnable    = 0x1A0

	UncGlobalCtl  = 0x391
	UncPerfEvtSel = 0x3C0
	UncPMC        = 0x3B0

	AMDPerfEvtSel0 = 0xC0010000
	AMDPMC0        = 0xC0010004
)

// CounterMask keeps counters at the architectural 48-bit width.
const CounterMask = (uint64(1) << 48) - 1

// Event-select register fields (common Intel/AMD layout).
const (
	EvtselUsr    = 1 << 16
	EvtselOS     = 1 << 17
	EvtselEnable = 1 << 22
)

// EvtselEncode builds an event-select value for (code, umask) counting in
// user and kernel mode with the enable bit set.
func EvtselEncode(code uint16, umask uint8) uint64 {
	return uint64(code&0xFF) | uint64(umask)<<8 | EvtselUsr | EvtselOS | EvtselEnable
}

// EvtselFields unpacks an event-select register value.
func EvtselFields(v uint64) (code uint16, umask uint8, enabled bool) {
	return uint16(v & 0xFF), uint8(v >> 8 & 0xFF), v&EvtselEnable != 0
}

// Device is one /dev/cpu/N/msr analogue.  All methods are safe for
// concurrent use.
type Device struct {
	cpu  int
	mu   *sync.Mutex // socket-wide lock: uncore registers are shared
	regs map[uint32]*uint64
}

// Space is the MSR register space of a whole node.
type Space struct {
	arch *hwdef.Arch
	devs []*Device
}

// NewSpace builds the register space for an architecture, with per-socket
// shared storage behind the uncore addresses.
func NewSpace(a *hwdef.Arch) *Space {
	s := &Space{arch: a}

	// Per-socket shared banks and locks.
	uncoreBanks := make([]map[uint32]*uint64, a.Sockets)
	sockLocks := make([]*sync.Mutex, a.Sockets)
	for sk := 0; sk < a.Sockets; sk++ {
		sockLocks[sk] = new(sync.Mutex)
		bank := make(map[uint32]*uint64)
		if a.NumUncore > 0 {
			bank[UncGlobalCtl] = new(uint64)
			for i := 0; i < a.NumUncore; i++ {
				bank[UncPerfEvtSel+uint32(i)] = new(uint64)
				bank[UncPMC+uint32(i)] = new(uint64)
			}
		}
		uncoreBanks[sk] = bank
	}

	n := a.HWThreads()
	s.devs = make([]*Device, n)
	for cpu := 0; cpu < n; cpu++ {
		// OS processor IDs enumerate socket-major within one SMT layer:
		// derive the socket the same way apic.Enumerate assigns it.
		socket := (cpu / a.CoresPerSocket) % a.Sockets
		regs := make(map[uint32]*uint64)
		switch a.Vendor {
		case hwdef.Intel:
			for i := 0; i < a.NumPMC; i++ {
				regs[IA32PerfEvtSel0+uint32(i)] = new(uint64)
				regs[IA32PMC0+uint32(i)] = new(uint64)
			}
			if a.HasFixedCtr {
				for i := 0; i < 3; i++ {
					regs[IA32FixedCtr0+uint32(i)] = new(uint64)
				}
				regs[IA32FixedCtrCtrl] = new(uint64)
			}
			ctl := new(uint64)
			regs[IA32PerfGlobalCtl] = ctl
			misc := new(uint64)
			*misc = defaultMiscEnable
			regs[IA32MiscEnable] = misc
		case hwdef.AMD:
			for i := 0; i < a.NumPMC; i++ {
				regs[AMDPerfEvtSel0+uint32(i)] = new(uint64)
				regs[AMDPMC0+uint32(i)] = new(uint64)
			}
		}
		for addr, p := range uncoreBanks[socket] {
			regs[addr] = p
		}
		s.devs[cpu] = &Device{cpu: cpu, mu: sockLocks[socket], regs: regs}
	}
	return s
}

// Default IA32_MISC_ENABLE: prefetcher-disable bits clear (prefetchers on),
// fast strings, automatic thermal control, perfmon available, Enhanced
// SpeedStep and MONITOR/MWAIT enabled — the state the likwid-features
// listing in the paper shows.
const defaultMiscEnable = 1<<0 | 1<<3 | 1<<7 | 1<<16 | 1<<18

// Open returns the device of one hardware thread, like opening
// /dev/cpu/<cpu>/msr.
func (s *Space) Open(cpu int) (*Device, error) {
	if cpu < 0 || cpu >= len(s.devs) {
		return nil, fmt.Errorf("msr: no such device /dev/cpu/%d/msr", cpu)
	}
	return s.devs[cpu], nil
}

// NumCPUs returns the number of device files in the space.
func (s *Space) NumCPUs() int { return len(s.devs) }

// Read returns the value of a register, failing for unimplemented addresses
// exactly as a real pread on the msr device would fail with EIO.
func (d *Device) Read(reg uint32) (uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.regs[reg]
	if !ok {
		return 0, fmt.Errorf("msr: cpu %d: read of unimplemented register %#x", d.cpu, reg)
	}
	return *p, nil
}

// Write stores a value into a register.
func (d *Device) Write(reg uint32, v uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.regs[reg]
	if !ok {
		return fmt.Errorf("msr: cpu %d: write of unimplemented register %#x", d.cpu, reg)
	}
	*p = v
	return nil
}

// Add increments a counter register, wrapping at the architectural width.
// The machine's event engine is the only caller.
func (d *Device) Add(reg uint32, delta uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	p, ok := d.regs[reg]
	if !ok {
		return fmt.Errorf("msr: cpu %d: increment of unimplemented register %#x", d.cpu, reg)
	}
	*p = (*p + delta) & CounterMask
	return nil
}

// SetBits ORs mask into a register; ClearBits removes it.  Used by
// likwid-features for the prefetcher-control bits.
func (d *Device) SetBits(reg uint32, mask uint64) error {
	v, err := d.Read(reg)
	if err != nil {
		return err
	}
	return d.Write(reg, v|mask)
}

// ClearBits clears the bits in mask.
func (d *Device) ClearBits(reg uint32, mask uint64) error {
	v, err := d.Read(reg)
	if err != nil {
		return err
	}
	return d.Write(reg, v&^mask)
}
