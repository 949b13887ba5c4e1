package sim

import (
	"fmt"
	"math/bits"

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
	// code stays for error messages and the Trace hook. prog is immutable
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

	// Constants hoisted out of the dispatch loop at construction time;
	// all are derived from the immutable chip configuration.
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

func newCore(id int, chip *Chip) *core {
	cfg := chip.cfg
	groupChans := cfg.GroupChannels()
	e := &cfg.Energy
	c := &core{
		id:         id,
		chip:       chip,
		images:     make([]image, chip.lanesCap),
		dirty:      make([]uint64, (cfg.Core.LocalMemBytes+(64<<dirtyShift)-1)/(64<<dirtyShift)),
		frontPJ:    e.InstFetchPJ + e.RegFilePJ,
		latScalar:  int64(cfg.Core.ScalarLatency),
		latMem:     int64(cfg.Core.LocalMemLatency),
		bw:         int64(cfg.Core.LocalMemBandwidth),
		vlanes:     int64(cfg.Core.VectorLanes),
		vecDepth:   int64(cfg.Core.VectorPipelineDepth),
		mvmOcc:     int64(cfg.MVMInterval()),
		mvmLat:     int64(cfg.MVMLatency()),
		groupChans: groupChans,
		macroRows:  int32(cfg.Unit.MacroRows),
	}
	for l := range c.images {
		im := &c.images[l]
		im.local = make([]byte, cfg.Core.LocalMemBytes)
		im.mg = make([][]byte, cfg.Core.NumMacroGroups)
		for i := range im.mg {
			im.mg[i] = make([]byte, cfg.Unit.MacroRows*groupChans)
		}
		im.cimAcc = make([]int32, groupChans)
		im.gather = make([]byte, cfg.Unit.MacroRows)
	}
	c.image = &c.images[0]
	c.reset(0) // make returned zeroed memory: there is nothing to clear yet
	return c
}

// reset restores the core to its power-on state (the state newCore leaves
// it in), keeping the loaded program and the allocated buffers. Only Run
// writes a data plane, in the lanes of its occupancy, and every store names
// its window to hazardIssue or is a CIM_LOAD, so what it wrote lies inside
// the pages and macro groups of the dirty record. Clearing those in the
// first lanes images — the widest occupancy of any Run since the last reset,
// not the last one's: a pooled chip shrinks and regrows its occupancy
// between runs — plus each one's accumulator and gather buffer leaves every
// allocated byte zero.
func (c *core) reset(lanes int) {
	c.pc = 0
	c.regs = [isa.NumGRegs]int32{}
	c.sregs = [isa.NumSRegs]int32{}
	for l := range c.images[:lanes] {
		im := &c.images[l]
		for w, word := range c.dirty {
			for ; word != 0; word &= word - 1 {
				lo := (w<<6 | bits.TrailingZeros64(word)) << dirtyShift
				clear(im.local[lo:min(lo+1<<dirtyShift, len(im.local))])
			}
		}
		for m := c.mgDirty; m != 0; m &= m - 1 {
			clear(im.mg[bits.TrailingZeros32(m)])
		}
		clear(im.cimAcc)
		clear(im.gather)
	}
	clear(c.dirty)
	c.mgDirty = 0
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

func (c *core) errf(format string, args ...any) error {
	pc := c.pc
	var cur string
	if pc < len(c.code) {
		cur = c.code[pc].String()
	}
	return fmt.Errorf("core %d pc %d [%s] t=%d: %s", c.id, pc, cur, c.time, fmt.Sprintf(format, args...))
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

// localRange validates a [addr, addr+size) local window.
func (c *core) localRange(addr, size int32) (memRange, error) {
	if size < 0 || addr < 0 || int(addr)+int(size) > len(c.local) {
		return memRange{}, fmt.Errorf("local access [%d, %d+%d) out of bounds (%d)", addr, addr, size, len(c.local))
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
	mem := int64(len(c.local))
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
	return memRange{int32(lo), int32(hi)}, nil
}
