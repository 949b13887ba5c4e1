package sim

import (
	"fmt"
	"math/bits"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
)

// GlobalBase is the start of the global-memory window in the unified
// address space; addresses below it are core-local.
const GlobalBase = 1 << 28

// memRange is a half-open byte range in local memory used by the
// bitmap-style scoreboard for memory-hazard tracking between units.
type memRange struct{ lo, hi int32 }

func (r memRange) overlaps(o memRange) bool { return r.lo < o.hi && o.lo < r.hi }

// dirtyShift is log2 of the granule of a core's dirty record: one bit per
// 4 KB page of local memory, chosen against 1 KB and 16 KB by measurement
// (EXPERIMENTS.md "PR 17").
const dirtyShift = 12

// outstanding records the in-flight operation of one execution unit: its
// completion cycle and the local-memory ranges it reads or writes.
type outstanding struct {
	done   int64
	ranges [3]memRange
	n      int
}

// stepStatus reports how a core's single-step ended.
type stepStatus int

const (
	stepOK      stepStatus = iota
	stepBlocked            // waiting on a RECV whose message has not arrived
	stepBarrier            // arrived at a BARRIER (pc already past it)
	stepHalted
)

// core is one processing core: a three-stage (IF/DE/EX) in-order pipeline
// front-end dispatching to four pipelined execution units (scalar, vector,
// CIM, transfer), with a scoreboard interlocking register and local-memory
// hazards. Functional state (registers, local memory, macro weights and
// accumulators) is updated in program order; timing is tracked per unit.
type core struct {
	id   int
	chip *Chip
	code []isa.Instruction
	// prog is the predecoded micro-op form of code, what the core executes;
	// code stays for error messages. prog is immutable
	// and may be shared between chips executing the same compiled artifact.
	prog []isa.Decoded

	pc    int
	regs  [isa.NumGRegs]int32
	sregs [isa.NumSRegs]int32

	// images[l] is lane l's data plane (see lanes.go); every lane shares the
	// registers, timing and stats above and below. The embedded pointer is
	// images[0], so c.local, c.mg, c.cimAcc and c.gather name lane 0's state:
	// the whole machine when one lane is live.
	*image
	images []image

	// The dirty record: what Runs since the last reset may have left unlike
	// power-on state. Bit p of dirty is page p (1<<dirtyShift bytes) of local
	// memory, marked by hazardIssue for every window an operation reads or
	// writes; bit g of mgDirty is macro group g, marked by CIM_LOAD. Addresses
	// come from the lane-shared registers, so one record serves every lane.
	dirty   []uint64
	mgDirty uint32

	// The program's map (mapMemory), lane-shared as addresses come from the
	// shared registers: every lane's image.local holds local memory's [0,
	// holeLo), then [holeHi, localSize) at its end. A window in the hole
	// between is an ErrUnmapped fault (localRange, vecSpan), and phys places
	// a validated one in the backing, subtracting localGap at or above
	// holeHi. mgMask sets the declared macro groups.
	localSize      int32
	holeLo, holeHi int32
	localGap       int32
	mgMask         uint32

	// Constants hoisted out of the dispatch loop by configure; all are
	// derived from the chip configuration.
	frontPJ    float64 // per-instruction front-end energy
	latScalar  int64   // scalar ALU latency
	latMem     int64   // local memory latency
	bw         int64   // local memory bandwidth, bytes/cycle
	vlanes     int64   // vector lanes
	vecDepth   int64   // vector pipeline depth
	mvmOcc     int64   // CIM_MVM unit occupancy (bit-serial interval)
	mvmLat     int64   // CIM_MVM completion latency
	groupChans int     // output channels per macro group
	macroRows  int32   // wordlines per macro

	// rangeBuf is the reusable scoreboard-range scratch of the handlers.
	rangeBuf [4]memRange

	// act is the lookup table of the activation decVec ran last (see
	// actTable). It is a pure function of its key, so it survives reset.
	act actTable

	// Timing state.
	time     int64
	regReady [isa.NumGRegs]int64
	unitFree [5]int64
	pending  [5]outstanding

	halted    bool
	blocked   bool   // waiting on a recv
	inBarrier bool   // waiting at a barrier
	barrierID uint16 // valid while blocked on a barrier
	blockSrc  int    // valid while blocked on a recv
	blockTag  int32

	stats CoreStats
}

// newCore returns core id of chip with unsized lane images; configure sizes
// them.
func newCore(id int, chip *Chip) *core {
	c := &core{id: id, chip: chip, images: make([]image, chip.lanesCap)}
	c.image = &c.images[0]
	return c
}

// configure readies a core at power-on state for cfg: it sizes every lane's
// buffers, keeping each one whose capacity holds the new size (Reset left it
// zero to its capacity), unmaps its memory, drops the program and derives
// the constants the handlers hoist out of the dispatch loop. Afterwards the
// core reads as the one a chip newly built for cfg holds.
func (c *core) configure(cfg *arch.Config) {
	groupChans := cfg.GroupChannels()
	e := &cfg.Energy
	c.frontPJ = e.InstFetchPJ + e.RegFilePJ
	c.latScalar = int64(cfg.Core.ScalarLatency)
	c.latMem = int64(cfg.Core.LocalMemLatency)
	c.bw = int64(cfg.Core.LocalMemBandwidth)
	c.vlanes = int64(cfg.Core.VectorLanes)
	c.vecDepth = int64(cfg.Core.VectorPipelineDepth)
	c.mvmOcc = int64(cfg.MVMInterval())
	c.mvmLat = int64(cfg.MVMLatency())
	c.groupChans = groupChans
	c.macroRows = int32(cfg.Unit.MacroRows)
	c.dirty = fit(c.dirty, (cfg.Core.LocalMemBytes+(64<<dirtyShift)-1)/(64<<dirtyShift))
	c.localSize = int32(cfg.Core.LocalMemBytes)
	c.holeLo, c.holeHi, c.localGap, c.mgMask = 0, c.localSize, c.localSize, 0
	for l := range c.images {
		im := &c.images[l]
		im.local = im.local[:0]
		im.mg = fit(im.mg, cfg.Core.NumMacroGroups)
		im.cimAcc = fit(im.cimAcc, groupChans)
		im.gather = fit(im.gather, cfg.Unit.MacroRows)
	}
	for i, g := range c.mg {
		c.mg[i] = g[:0]
	}
	c.code, c.prog = nil, nil
	c.reset(0) // the record is empty: this clears no data
}

// mapMemory backs what m declares in every lane, the hole's edges rounded
// outwards to pages so that a page lies wholly on one side, and the groups
// in lane 0's buffers, which every lane shares. A new map first clears the
// dirty record where the old one placed it; every buffer is then zero to
// its capacity, and resliced when that holds the new size.
func (c *core) mapMemory(m MemMap) {
	const page = 1 << dirtyShift
	lo, hi := (m.PoolEnd+page-1)&^(page-1), m.ArenaMin&^(page-1)
	if lo >= hi {
		lo, hi = 0, 0 // no page lies between pool and arena
	}
	if lo == c.holeLo && hi == c.holeHi && m.Groups == c.mgMask {
		return
	}
	c.clearRecord(c.chip.dirtyLanes)
	c.holeLo, c.holeHi, c.localGap, c.mgMask = lo, hi, hi-lo, m.Groups
	for l := range c.images {
		c.images[l].local = fit(c.images[l].local, int(c.localSize-c.localGap))
	}
	for g := range c.mg { // an undeclared group is empty
		c.mg[g] = fit(c.mg[g], int(m.Groups>>g&1)*int(c.macroRows)*c.groupChans)
	}
	for l := 1; l < len(c.images); l++ {
		copy(c.images[l].mg, c.mg)
	}
}

// fit returns s resized to n elements: in its own storage when that holds n,
// else newly allocated.
func fit[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// reset restores the core to its power-on state (the state configure leaves
// it in), keeping the loaded program, its map and lane 0's buffers.
func (c *core) reset(lanes int) {
	c.clearRecord(lanes)
	c.pc = 0
	c.regs = [isa.NumGRegs]int32{}
	c.sregs = [isa.NumSRegs]int32{}
	c.time = 0
	c.regReady = [isa.NumGRegs]int64{}
	c.unitFree = [5]int64{}
	c.pending = [5]outstanding{}
	c.halted = false
	c.blocked = false
	c.inBarrier = false
	c.barrierID = 0
	c.blockSrc = 0
	c.blockTag = 0
	c.sregs[isa.SRegCoreID] = int32(c.id)
	c.sregs[isa.SRegSegCount] = 1
	c.sregs[isa.SRegVecStrideA] = 1
	c.sregs[isa.SRegVecStrideB] = 1
	c.sregs[isa.SRegVecStrideD] = 1
	c.sregs[isa.SRegRowTiles] = 1
	c.stats = CoreStats{CoreID: c.id}
}

// clearRecord zeroes what Runs wrote: only Run writes a data plane, in the
// lanes of its occupancy, and every store names its window to hazardIssue or
// is a CIM_LOAD, so it lies in the record's pages and groups. Clearing the
// pages in the first lanes images — the widest occupancy since the last
// reset: a pooled chip shrinks and regrows its occupancy — with their
// accumulators and gather buffers, and the groups once, in lane 0's buffers,
// leaves every allocated byte zero; every lane then shares lane 0's groups.
func (c *core) clearRecord(lanes int) {
	for l := range c.images[:lanes] {
		im := &c.images[l]
		for w, word := range c.dirty {
			for ; word != 0; word &= word - 1 {
				lo := int32(w<<6|bits.TrailingZeros64(word)) << dirtyShift
				p := c.phys(lo) // a page lies wholly on one side of the hole
				clear(im.local[p : p+min(1<<dirtyShift, c.localSize-lo)])
			}
		}
		clear(im.cimAcc)
		clear(im.gather)
	}
	for m := c.mgDirty; m != 0; m &= m - 1 {
		clear(c.mg[bits.TrailingZeros32(m)])
	}
	for l := 1; l < len(c.images); l++ {
		copy(c.images[l].mg, c.mg)
	}
	clear(c.dirty)
	c.mgDirty = 0
}

// errf reports a fault at the core's instruction; %w wraps an error.
func (c *core) errf(format string, args ...any) error {
	pc := c.pc
	var cur string
	if pc < len(c.code) {
		cur = c.code[pc].String()
	}
	return fmt.Errorf("core %d pc %d [%s] t=%d: "+format, append([]any{c.id, pc, cur, c.time}, args...)...)
}

// reg reads a general register (G0 reads as zero).
func (c *core) reg(r uint8) int32 { return c.regs[r] }

// setReg writes a general register, ignoring writes to G0, and marks the
// result ready at the given cycle.
func (c *core) setReg(r uint8, v int32, ready int64) {
	if r == isa.GZero {
		return
	}
	c.regs[r] = v
	c.regReady[r] = ready
}

// hazardIssue computes the earliest issue cycle given register sources,
// the target unit, and local-memory ranges, implementing the scoreboard. It
// also marks the ranges' pages in the dirty record: the handlers pass every
// local window an operation reads or writes here. Marking one that is
// only read, or whose operation faults later, is harmless; an empty one — a
// zero-length operand's unvalidated base — marks nothing. retire gets the
// same windows but is inlined into every handler, and would not be with this
// loop in it: marking there cost about 7% of a resnet18 run.
//
// The handlers come here only for an operation that names a local window
// (scalar load/store to local memory, MEM_CPY, VFILL, SEND, RECV, CIM_LOAD,
// CIM_MVM, VEC_*); with no window the mark and the pending scan do nothing,
// and the rest take regIssue, this function's windowless form, which
// TestRegIssueMatchesHazardIssue holds to hazardIssue(…, nil).
func (c *core) hazardIssue(unit isa.Unit, srcs []uint8, ranges []memRange) int64 {
	for _, r := range ranges {
		if r.lo < r.hi {
			for pg := r.lo >> dirtyShift; pg <= (r.hi-1)>>dirtyShift; pg++ {
				c.dirty[pg>>6] |= 1 << (pg & 63)
			}
		}
	}
	issue := c.time
	for _, r := range srcs {
		if c.regReady[r] > issue {
			issue = c.regReady[r]
		}
	}
	if c.unitFree[unit] > issue {
		issue = c.unitFree[unit]
	}
	for u := range c.pending {
		p := &c.pending[u]
		if p.done <= issue {
			continue
		}
		for i := 0; i < p.n; i++ {
			for _, r := range ranges {
				if p.ranges[i].overlaps(r) {
					if p.done > issue {
						issue = p.done
					}
				}
			}
		}
	}
	if issue > c.time {
		c.stats.StallCycles += issue - c.time
	}
	return issue
}

// regIssue is hazardIssue for an operation that names no local window: the
// latest of the core's time, its sources' ready cycles and the unit's free
// cycle, with the same stall accounting. It marks nothing, so nothing that
// stores to local memory may issue through it. About 86% of executed
// instructions issue here; it is kept small enough to inline (CI checks).
func (c *core) regIssue(unit isa.Unit, srcs []uint8) int64 {
	issue := max(c.time, c.unitFree[unit])
	for _, r := range srcs {
		issue = max(issue, c.regReady[r])
	}
	if issue > c.time {
		c.stats.StallCycles += issue - c.time
	}
	return issue
}

// retire records an instruction's occupancy and completion on its unit.
func (c *core) retire(unit isa.Unit, issue, occupancy, completion int64, ranges []memRange) {
	c.unitFree[unit] = issue + occupancy
	p := &c.pending[unit]
	p.done = completion
	p.n = 0
	for _, r := range ranges {
		if p.n < len(p.ranges) {
			p.ranges[p.n] = r
			p.n++
		}
	}
	c.stats.UnitBusy[unit] += occupancy
}

// localRange validates a [addr, addr+size) local window: inside memory and
// outside the hole, which an empty window enters only strictly inside.
func (c *core) localRange(addr, size int32) (memRange, error) {
	if size < 0 || addr < 0 || int(addr)+int(size) > int(c.localSize) {
		return memRange{}, fmt.Errorf("local access [%d, %d+%d) out of bounds (%d)", addr, addr, size, c.localSize)
	}
	if addr < c.holeHi && addr+size > c.holeLo {
		return memRange{}, fmt.Errorf("local access [%d, %d+%d) %w (hole [%d, %d))", addr, addr, size, ErrUnmapped, c.holeLo, c.holeHi)
	}
	return memRange{addr, addr + size}, nil
}

// vecSpan validates the local-memory window a strided n-element vector
// operand touches. n and the stride are whatever the program loaded, and
// (n-1)*stride wraps int32 long before the operand fits in memory (n = 65537
// at stride 65536 is a 1-byte span in int32), so the span is taken in int64.
func (c *core) vecSpan(base, stride, size, n int32) (memRange, error) {
	if n == 0 {
		return memRange{base, base}, nil
	}
	mem := int64(c.localSize)
	// The last element's offset, clamped to the memory size: such an operand
	// is out of bounds either way, and the size multiply cannot wrap int64.
	ext := min(max(int64(n-1)*int64(stride), -mem), mem) * int64(size)
	lo, hi := int64(base), int64(base)+int64(size)
	if ext > 0 {
		hi += ext
	} else {
		lo += ext
	}
	if lo < 0 || hi > mem {
		return memRange{}, fmt.Errorf("local access of %d x %d bytes at %d, stride %d, out of bounds (%d)", n, size, base, stride, mem)
	}
	return c.localRange(int32(lo), int32(hi-lo))
}

// phys returns where the local address of a window localRange or vecSpan
// validated sits in every lane's backing; an element at a fixed offset from
// it sits as far from that. It is on every local access and kept small
// enough to inline (CI checks).
func (c *core) phys(addr int32) int32 {
	if addr >= c.holeHi {
		return addr - c.localGap
	}
	return addr
}

// readLocal copies lane l's local memory at [addr, addr+len(out)), inside
// the logical size, into out, the hole reading as zeros.
func (c *core) readLocal(out []byte, l int, addr int32) {
	local := c.images[l].local
	end := addr + int32(len(out))
	clear(out)
	if addr < c.holeLo {
		copy(out, local[addr:min(end, c.holeLo)])
	}
	if lo := max(addr, c.holeHi); lo < end {
		copy(out[lo-addr:], local[lo-c.localGap:end-c.localGap])
	}
}
