package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"cimflow/internal/isa"
	"cimflow/internal/tensor"
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
	// prog is the predecoded micro-op form of code, nil on chips running
	// the legacy interpreter. It is immutable and may be shared between
	// chips executing the same compiled artifact.
	prog []isa.Decoded

	pc    int
	regs  [isa.NumGRegs]int32
	sregs [isa.NumSRegs]int32

	// images[l] is lane l's data plane (see lanes.go); every lane shares the
	// registers, timing and stats above and below. The embedded pointer is
	// images[0], so c.local, c.mg, c.cimAcc and c.gather name lane 0's state:
	// the whole machine when one lane is live, which is all the legacy
	// interpreter ever runs.
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

	// rangeBuf is the reusable scoreboard-range scratch of the predecoded
	// step functions (the legacy interpreter builds ad-hoc slices instead).
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
// also marks the ranges' pages in the dirty record: both executors pass
// every local window an operation reads or writes here. Marking one that is
// only read, or whose operation faults later, is harmless; an empty one — a
// zero-length operand's unvalidated base — marks nothing. retire gets the
// same windows but is inlined into every handler, and would not be with this
// loop in it: marking there cost about 7% of a resnet18 run.
//
// The predecoded handlers come here only for an operation that names a local
// window (scalar load/store to local memory, MEM_CPY, VFILL, SEND, RECV,
// CIM_LOAD, CIM_MVM, VEC_*); with no window the mark and the pending scan do
// nothing, and those handlers take regIssue, this function's windowless form.
// The legacy interpreter passes nil ranges here instead, so that the
// equivalence suites compare regIssue with the code it was derived from.
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

// step executes one instruction. The chip scheduler guarantees this core
// currently has the minimum local time, so NoC reservations stay ordered.
func (c *core) step() (stepStatus, error) {
	if c.pc >= len(c.code) {
		return stepHalted, c.errf("fell off the end of the program")
	}
	in := c.code[c.pc]
	e := &c.chip.cfg.Energy
	c.stats.Energy.FrontendPJ += e.InstFetchPJ + e.RegFilePJ
	c.stats.Instructions++

	switch in.Op {
	case isa.OpNOP:
		c.time++
		c.pc++
	case isa.OpHALT:
		c.time++
		c.stats.HaltCycle = c.time
		c.halted = true
		return stepHalted, nil
	case isa.OpJMP:
		c.time += 3 // resolve + 2-cycle fetch bubble
		c.pc += 1 + int(in.Imm)
		if c.pc < 0 || c.pc > len(c.code) {
			return stepOK, c.errf("jump target %d out of range", c.pc)
		}
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE:
		issue := c.hazardIssue(isa.UnitControl, []uint8{in.RS, in.RT}, nil)
		a, b := c.reg(in.RS), c.reg(in.RT)
		taken := false
		switch in.Op {
		case isa.OpBEQ:
			taken = a == b
		case isa.OpBNE:
			taken = a != b
		case isa.OpBLT:
			taken = a < b
		case isa.OpBGE:
			taken = a >= b
		}
		if taken {
			c.time = issue + 3
			c.pc += 1 + int(in.Imm)
			if c.pc < 0 || c.pc > len(c.code) {
				return stepOK, c.errf("branch target %d out of range", c.pc)
			}
		} else {
			c.time = issue + 1
			c.pc++
		}
	case isa.OpScALU, isa.OpScALUI, isa.OpScLUI, isa.OpScMTS, isa.OpScMFS:
		if err := c.stepScalar(in); err != nil {
			return stepOK, err
		}
	case isa.OpScLD, isa.OpScST, isa.OpScLB, isa.OpScSB:
		if err := c.stepScalarMem(in); err != nil {
			return stepOK, err
		}
	case isa.OpMemCpy, isa.OpVFill:
		if err := c.stepTransfer(in); err != nil {
			return stepOK, err
		}
	case isa.OpSend:
		if err := c.stepSend(in); err != nil {
			return stepOK, err
		}
	case isa.OpRecv:
		st, err := c.stepRecv(in)
		if err != nil {
			return stepOK, err
		}
		return st, nil
	case isa.OpBarrier:
		c.barrierID = in.Flags
		c.time++
		c.pc++
		return stepBarrier, nil
	case isa.OpCimLoad:
		if err := c.stepCimLoad(in); err != nil {
			return stepOK, err
		}
	case isa.OpCimMVM:
		if err := c.stepCimMVM(in); err != nil {
			return stepOK, err
		}
	case isa.OpVec:
		if err := c.stepVector(in); err != nil {
			return stepOK, err
		}
	default:
		return stepOK, c.errf("unimplemented opcode %d", in.Op)
	}
	return stepOK, nil
}

func (c *core) stepScalar(in isa.Instruction) error {
	e := &c.chip.cfg.Energy
	c.stats.Energy.ScalarPJ += e.ScalarOpPJ
	lat := int64(c.chip.cfg.Core.ScalarLatency)
	switch in.Op {
	case isa.OpScALU:
		issue := c.hazardIssue(isa.UnitScalar, []uint8{in.RS, in.RT}, nil)
		v, err := scalarALU(in.Funct, c.reg(in.RS), c.reg(in.RT))
		if err != nil {
			return c.errf("%v", err)
		}
		c.setReg(in.RD, v, issue+lat)
		c.retire(isa.UnitScalar, issue, 1, issue+lat, nil)
		c.time = issue + 1
	case isa.OpScALUI:
		issue := c.hazardIssue(isa.UnitScalar, []uint8{in.RS}, nil)
		v, err := scalarALU(in.Funct, c.reg(in.RS), in.Imm)
		if err != nil {
			return c.errf("%v", err)
		}
		c.setReg(in.RT, v, issue+lat)
		c.retire(isa.UnitScalar, issue, 1, issue+lat, nil)
		c.time = issue + 1
	case isa.OpScLUI:
		issue := c.hazardIssue(isa.UnitScalar, nil, nil)
		c.setReg(in.RT, in.Imm<<16, issue+lat)
		c.time = issue + 1
	case isa.OpScMTS:
		issue := c.hazardIssue(isa.UnitScalar, []uint8{in.RS}, nil)
		if in.Imm < 0 || int(in.Imm) >= isa.NumSRegs {
			return c.errf("special register %d out of range", in.Imm)
		}
		if in.Imm != isa.SRegCoreID { // core id is read-only
			c.sregs[in.Imm] = c.reg(in.RS)
		}
		c.time = issue + 1
	case isa.OpScMFS:
		issue := c.hazardIssue(isa.UnitScalar, nil, nil)
		if in.Imm < 0 || int(in.Imm) >= isa.NumSRegs {
			return c.errf("special register %d out of range", in.Imm)
		}
		c.setReg(in.RT, c.sregs[in.Imm], issue+lat)
		c.time = issue + 1
	}
	c.pc++
	return nil
}

func scalarALU(fn uint8, a, b int32) (int32, error) {
	switch fn {
	case isa.FnAdd:
		return a + b, nil
	case isa.FnSub:
		return a - b, nil
	case isa.FnMul:
		return a * b, nil
	case isa.FnDiv:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a / b, nil
	case isa.FnRem:
		if b == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		return a % b, nil
	case isa.FnAnd:
		return a & b, nil
	case isa.FnOr:
		return a | b, nil
	case isa.FnXor:
		return a ^ b, nil
	case isa.FnSlt:
		if a < b {
			return 1, nil
		}
		return 0, nil
	case isa.FnSll:
		return a << (uint32(b) & 31), nil
	case isa.FnSrl:
		return int32(uint32(a) >> (uint32(b) & 31)), nil
	case isa.FnSra:
		return a >> (uint32(b) & 31), nil
	case isa.FnMin:
		if a < b {
			return a, nil
		}
		return b, nil
	case isa.FnMax:
		if a > b {
			return a, nil
		}
		return b, nil
	}
	return 0, fmt.Errorf("unknown scalar funct %d", fn)
}

func (c *core) stepScalarMem(in isa.Instruction) error {
	cfg := c.chip.cfg
	e := &cfg.Energy
	addr := c.reg(in.RS) + in.Imm
	size := int32(4)
	if in.Op == isa.OpScLB || in.Op == isa.OpScSB {
		size = 1
	}
	isLoad := in.Op == isa.OpScLD || in.Op == isa.OpScLB
	var srcs []uint8
	if isLoad {
		srcs = []uint8{in.RS}
	} else {
		srcs = []uint8{in.RS, in.RT}
	}
	if addr >= GlobalBase {
		issue := c.hazardIssue(isa.UnitScalar, srcs, nil)
		done := c.chip.mesh.MemAccess(c.id, int(size), issue)
		g := addr - GlobalBase
		if g < 0 || int(g)+int(size) > len(c.chip.global[0]) {
			return c.errf("global access %d out of bounds", g)
		}
		if isLoad {
			var v int32
			if size == 4 {
				v = int32(binary.LittleEndian.Uint32(c.chip.global[0][g:]))
			} else {
				v = int32(int8(c.chip.global[0][g]))
			}
			c.setReg(in.RT, v, done)
		} else {
			if size == 4 {
				binary.LittleEndian.PutUint32(c.chip.global[0][g:], uint32(c.reg(in.RT)))
			} else {
				c.chip.global[0][g] = byte(c.reg(in.RT))
			}
		}
		c.retire(isa.UnitScalar, issue, 1, done, nil)
		c.time = issue + 1
		c.pc++
		return nil
	}
	r, err := c.localRange(addr, size)
	if err != nil {
		return c.errf("%v", err)
	}
	issue := c.hazardIssue(isa.UnitScalar, srcs, []memRange{r})
	lat := int64(cfg.Core.LocalMemLatency)
	c.stats.Energy.LocalMemPJ += float64(size) * e.LocalMemPJPerByte
	if isLoad {
		var v int32
		if size == 4 {
			v = int32(binary.LittleEndian.Uint32(c.local[addr:]))
		} else {
			v = int32(int8(c.local[addr]))
		}
		c.setReg(in.RT, v, issue+lat)
	} else {
		if size == 4 {
			binary.LittleEndian.PutUint32(c.local[addr:], uint32(c.reg(in.RT)))
		} else {
			c.local[addr] = byte(c.reg(in.RT))
		}
	}
	c.retire(isa.UnitScalar, issue, 1, issue+lat, []memRange{r})
	c.time = issue + 1
	c.pc++
	return nil
}

// stepTransfer executes MEM_CPY and VFILL on the transfer unit.
func (c *core) stepTransfer(in isa.Instruction) error {
	cfg := c.chip.cfg
	e := &cfg.Energy
	bw := int64(cfg.Core.LocalMemBandwidth)
	size := c.reg(in.RT)
	if size < 0 {
		return c.errf("negative transfer size %d", size)
	}
	if in.Op == isa.OpVFill {
		dst := c.reg(in.RS)
		r, err := c.localRange(dst, size)
		if err != nil {
			return c.errf("%v", err)
		}
		issue := c.hazardIssue(isa.UnitTransfer, []uint8{in.RS, in.RT}, []memRange{r})
		fill := byte(int8(in.Imm))
		for i := int32(0); i < size; i++ {
			c.local[dst+i] = fill
		}
		occ := int64(cfg.Core.LocalMemLatency) + (int64(size)+bw-1)/bw
		c.stats.Energy.LocalMemPJ += float64(size) * e.LocalMemPJPerByte
		c.retire(isa.UnitTransfer, issue, occ, issue+occ, []memRange{r})
		c.time = issue + 1
		c.pc++
		return nil
	}

	src := c.reg(in.RS)
	dst := c.reg(in.RD) + in.Imm
	srcGlobal, dstGlobal := src >= GlobalBase, dst >= GlobalBase
	var ranges []memRange
	if !srcGlobal {
		r, err := c.localRange(src, size)
		if err != nil {
			return c.errf("%v", err)
		}
		ranges = append(ranges, r)
	}
	if !dstGlobal {
		r, err := c.localRange(dst, size)
		if err != nil {
			return c.errf("%v", err)
		}
		ranges = append(ranges, r)
	}
	issue := c.hazardIssue(isa.UnitTransfer, []uint8{in.RS, in.RT, in.RD}, ranges)

	// Functional copy.
	var data []byte
	if srcGlobal {
		g := src - GlobalBase
		if g < 0 || int(g)+int(size) > len(c.chip.global[0]) {
			return c.errf("global read [%d+%d) out of bounds", g, size)
		}
		data = c.chip.global[0][g : g+size]
	} else {
		data = c.local[src : src+size]
	}
	if dstGlobal {
		g := dst - GlobalBase
		if g < 0 || int(g)+int(size) > len(c.chip.global[0]) {
			return c.errf("global write [%d+%d) out of bounds", g, size)
		}
		copy(c.chip.global[0][g:], data)
	} else {
		copy(c.local[dst:], data)
	}

	// Timing and energy.
	var done int64
	switch {
	case srcGlobal || dstGlobal:
		done = c.chip.mesh.MemAccess(c.id, int(size), issue)
		c.stats.Energy.LocalMemPJ += float64(size) * e.LocalMemPJPerByte // local side
	default:
		done = issue + int64(cfg.Core.LocalMemLatency) + (int64(size)+bw-1)/bw
		c.stats.Energy.LocalMemPJ += 2 * float64(size) * e.LocalMemPJPerByte
	}
	occ := done - issue
	c.retire(isa.UnitTransfer, issue, occ, done, ranges)
	c.time = issue + 1
	c.pc++
	return nil
}

func (c *core) stepSend(in isa.Instruction) error {
	cfg := c.chip.cfg
	src := c.reg(in.RS)
	size := c.reg(in.RT)
	dst := int(c.reg(in.RD))
	if dst < 0 || dst >= len(c.chip.cores) {
		return c.errf("send to core %d out of range", dst)
	}
	r, err := c.localRange(src, size)
	if err != nil {
		return c.errf("%v", err)
	}
	issue := c.hazardIssue(isa.UnitTransfer, []uint8{in.RS, in.RT, in.RD}, []memRange{r})
	payload := c.chip.getPayload(size)
	copy(payload, c.local[src:src+size])
	bw := int64(cfg.Core.LocalMemBandwidth)
	inject := (int64(size)+bw-1)/bw + 1
	arrival := c.chip.mesh.Transfer(c.id, dst, int(size), issue+inject)
	c.stats.Energy.LocalMemPJ += float64(size) * cfg.Energy.LocalMemPJPerByte
	c.chip.deliver(c.id, dst, in.Imm, payload, arrival)
	c.retire(isa.UnitTransfer, issue, inject, issue+inject, []memRange{r})
	c.time = issue + 1
	c.pc++
	return nil
}

// stepRecv completes if the matching message has been delivered, otherwise
// blocks the core until the sender wakes it.
func (c *core) stepRecv(in isa.Instruction) (stepStatus, error) {
	src := int(c.reg(in.RD))
	if src < 0 || src >= len(c.chip.cores) {
		return stepOK, c.errf("recv from core %d out of range", src)
	}
	tag := in.Imm
	msg, ok := c.chip.peek(src, c.id, tag)
	if !ok {
		c.blockSrc, c.blockTag = src, tag
		return stepBlocked, nil
	}
	cfg := c.chip.cfg
	dst := c.reg(in.RS)
	want := c.reg(in.RT)
	if int(want) != len(msg.payload) {
		return stepOK, c.errf("recv size %d != message size %d (src %d tag %d)", want, len(msg.payload), src, tag)
	}
	r, err := c.localRange(dst, want)
	if err != nil {
		return stepOK, c.errf("%v", err)
	}
	issue := c.hazardIssue(isa.UnitTransfer, []uint8{in.RS, in.RT, in.RD}, []memRange{r})
	if msg.arrival > issue {
		c.stats.StallCycles += msg.arrival - issue
		issue = msg.arrival
	}
	c.chip.pop(src, c.id, tag)
	copy(c.local[dst:], msg.payload)
	c.chip.putPayload(msg.payload)
	bw := int64(cfg.Core.LocalMemBandwidth)
	occ := (int64(want)+bw-1)/bw + 1
	c.stats.Energy.LocalMemPJ += float64(want) * cfg.Energy.LocalMemPJPerByte
	c.retire(isa.UnitTransfer, issue, occ, issue+occ, []memRange{r})
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

func (c *core) stepCimLoad(in isa.Instruction) error {
	cfg := c.chip.cfg
	mgIdx := int(c.reg(in.RT))
	rows := c.reg(in.RE)
	chans := c.reg(in.RD)
	src := c.reg(in.RS)
	if mgIdx < 0 || mgIdx >= len(c.mg) {
		return c.errf("macro group %d out of range [0,%d)", mgIdx, len(c.mg))
	}
	groupChans := int32(cfg.GroupChannels())
	rowOff := c.sregs[isa.SRegLoadRow]
	chanOff := c.sregs[isa.SRegLoadChan]
	if rows < 0 || chans < 0 || rowOff < 0 || chanOff < 0 ||
		rowOff+rows > int32(cfg.Unit.MacroRows) || chanOff+chans > groupChans {
		return c.errf("cim_load %dx%d at (%d,%d) exceeds macro group %dx%d",
			rows, chans, rowOff, chanOff, cfg.Unit.MacroRows, groupChans)
	}
	size := rows * chans
	r, err := c.localRange(src, size)
	if err != nil {
		return c.errf("%v", err)
	}
	issue := c.hazardIssue(isa.UnitCIM, []uint8{in.RS, in.RT, in.RE, in.RD}, []memRange{r})
	c.mgDirty |= 1 << mgIdx
	w := c.mg[mgIdx]
	for row := int32(0); row < rows; row++ {
		base := (rowOff + row) * groupChans
		srcBase := src + row*chans
		for ch := int32(0); ch < chans; ch++ {
			w[base+chanOff+ch] = c.local[srcBase+ch]
		}
	}
	bw := int64(cfg.Core.LocalMemBandwidth)
	occ := int64(cfg.Core.LocalMemLatency) + (int64(size)+bw-1)/bw
	c.stats.Energy.CIMLoadPJ += float64(size) * cfg.Energy.CIMLoadPJPerByte
	c.stats.Energy.LocalMemPJ += float64(size) * cfg.Energy.LocalMemPJPerByte
	c.retire(isa.UnitCIM, issue, occ, issue+occ, []memRange{r})
	c.time = issue + 1
	c.pc++
	return nil
}

// stepCimMVM implements the matrix-vector multiply on one macro group: the
// input vector (up to MacroRows INT8 values) is gathered from local memory
// (SRegSegCount segments SRegSegStride bytes apart), broadcast bit-serially
// across the group's macros, and multiply-accumulated against the group's
// resident weights into the CIM unit's shared accumulator. The final issue
// of a row-tiled sequence requantizes the accumulator and writes back.
func (c *core) stepCimMVM(in isa.Instruction) error {
	cfg := c.chip.cfg
	e := &cfg.Energy
	rows := c.reg(in.RT)
	inAddr := c.reg(in.RS)
	if rows <= 0 || int(rows) > cfg.Unit.MacroRows {
		return c.errf("mvm input length %d out of range (max %d)", rows, cfg.Unit.MacroRows)
	}
	mgIdx := isa.MVMFlagMG(in.Flags)
	if mgIdx >= len(c.mg) {
		return c.errf("mvm targets macro group %d of %d", mgIdx, len(c.mg))
	}

	// Gather input segments.
	segCount := c.sregs[isa.SRegSegCount]
	if segCount <= 0 || rows%segCount != 0 {
		return c.errf("mvm length %d not divisible into %d segments", rows, segCount)
	}
	segLen := rows / segCount
	segStride := c.sregs[isa.SRegSegStride]
	ranges := make([]memRange, 0, 3)
	for s := int32(0); s < segCount; s++ {
		base := inAddr + s*segStride
		r, err := c.localRange(base, segLen)
		if err != nil {
			return c.errf("mvm segment %d: %v", s, err)
		}
		if s == 0 || s == segCount-1 {
			ranges = append(ranges, r)
		}
		copy(c.gather[s*segLen:], c.local[base:base+segLen])
	}
	input := c.gather[:rows]

	// Accumulate into the unit accumulator.
	groupChans := cfg.GroupChannels()
	if in.Flags&isa.MVMFlagAccumulate == 0 {
		for i := range c.cimAcc {
			c.cimAcc[i] = 0
		}
	}
	w := c.mg[mgIdx]
	for row := int32(0); row < rows; row++ {
		iv := int32(int8(input[row]))
		if iv == 0 {
			continue
		}
		wRow := w[int(row)*groupChans : (int(row)+1)*groupChans]
		for ch := 0; ch < groupChans; ch++ {
			c.cimAcc[ch] += iv * int32(int8(wRow[ch]))
		}
	}
	macs := int64(rows) * int64(groupChans)
	c.stats.MACs += macs
	c.stats.Energy.CIMComputePJ += float64(macs) * e.CIMMACpJ
	c.stats.Energy.LocalMemPJ += float64(rows) * e.LocalMemPJPerByte

	// Writeback.
	var wbBytes int32
	outAddr := c.reg(in.RE)
	if in.Flags&(isa.MVMFlagWriteback|isa.MVMFlagWriteRaw) != 0 {
		outChans := c.sregs[isa.SRegOutChans]
		if outChans <= 0 || outChans > int32(groupChans) {
			outChans = int32(groupChans)
		}
		raw := in.Flags&isa.MVMFlagWriteRaw != 0
		elem := int32(1)
		if raw {
			elem = 4
		}
		wbBytes = outChans * elem
		r, err := c.localRange(outAddr, wbBytes)
		if err != nil {
			return c.errf("mvm writeback: %v", err)
		}
		ranges = append(ranges, r)
		qmul := c.sregs[isa.SRegQuantMul]
		qshift := uint(c.sregs[isa.SRegQuantShift]) & 31
		relu := in.Flags&isa.MVMFlagRelu != 0
		for ch := int32(0); ch < outChans; ch++ {
			sum := c.cimAcc[ch]
			if raw {
				binary.LittleEndian.PutUint32(c.local[outAddr+ch*4:], uint32(sum))
			} else {
				v := tensor.Requant(sum, qmul, qshift)
				if relu && v < 0 {
					v = 0
				}
				c.local[outAddr+ch] = byte(v)
			}
		}
		c.stats.Energy.LocalMemPJ += float64(wbBytes) * e.LocalMemPJPerByte
	}

	issue := c.hazardIssue(isa.UnitCIM, []uint8{in.RS, in.RT, in.RE}, ranges)
	bw := int64(cfg.Core.LocalMemBandwidth)
	// The unit is occupied for the bit-serial phases or the input streaming
	// time, whichever dominates.
	occ := int64(cfg.MVMInterval())
	if stream := (int64(rows) + bw - 1) / bw; stream > occ {
		occ = stream
	}
	done := issue + int64(cfg.MVMLatency()) + (int64(wbBytes)+bw-1)/bw
	c.retire(isa.UnitCIM, issue, occ, done, ranges)
	c.time = issue + 1
	c.pc++
	return nil
}

// vecElemSizes and isReduction are the legacy-interpreter aliases of the
// canonical helpers, which moved to the isa package with the predecoder.
func vecElemSizes(fn uint8) (a, b, d int32, err error) { return isa.VecElemSizes(fn) }

func isReduction(fn uint8) bool { return isa.VecIsReduction(fn) }

// stepVector executes a memory-to-memory SIMD operation on the vector unit.
func (c *core) stepVector(in isa.Instruction) error {
	cfg := c.chip.cfg
	e := &cfg.Energy
	n := c.reg(in.RE)
	if n < 0 {
		return c.errf("negative vector length %d", n)
	}
	sizeA, sizeB, sizeD, err := vecElemSizes(in.Funct)
	if err != nil {
		return c.errf("%v", err)
	}
	strideA := c.sregs[isa.SRegVecStrideA]
	strideB := c.sregs[isa.SRegVecStrideB]
	strideD := c.sregs[isa.SRegVecStrideD]
	aAddr, bAddr, dAddr := c.reg(in.RS), c.reg(in.RT), c.reg(in.RD)

	span := func(base, stride, size int32) (memRange, error) { return c.vecSpan(base, stride, size, n) }
	dN := n
	if isReduction(in.Funct) {
		dN = 1
	}
	var ranges []memRange
	rA, err := span(aAddr, strideA, sizeA)
	if err != nil {
		return c.errf("vector src A: %v", err)
	}
	ranges = append(ranges, rA)
	if sizeB != 0 {
		rB, err := span(bAddr, strideB, sizeB)
		if err != nil {
			return c.errf("vector src B: %v", err)
		}
		ranges = append(ranges, rB)
	}
	var rD memRange
	if dN > 0 {
		if isReduction(in.Funct) {
			rD, err = c.localRange(dAddr, sizeD)
		} else {
			rD, err = span(dAddr, strideD, sizeD)
		}
		if err != nil {
			return c.errf("vector dst: %v", err)
		}
		ranges = append(ranges, rD)
	}
	issue := c.hazardIssue(isa.UnitVector, []uint8{in.RS, in.RT, in.RD, in.RE}, ranges)

	ld8 := func(base, stride, i int32) int32 { return int32(int8(c.local[base+i*stride])) }
	ld32 := func(base, stride, i int32) int32 {
		return int32(binary.LittleEndian.Uint32(c.local[base+i*stride*4:]))
	}
	st8 := func(i int32, v int8) { c.local[dAddr+i*strideD] = byte(v) }
	st32 := func(i int32, v int32) { binary.LittleEndian.PutUint32(c.local[dAddr+i*strideD*4:], uint32(v)) }

	qmul := c.sregs[isa.SRegQuantMul]
	qshift := uint(c.sregs[isa.SRegQuantShift]) & 31
	switch in.Funct {
	case isa.VFnAdd8:
		for i := int32(0); i < n; i++ {
			st8(i, tensor.Sat8(ld8(aAddr, strideA, i)+ld8(bAddr, strideB, i)))
		}
	case isa.VFnMul8:
		for i := int32(0); i < n; i++ {
			st8(i, tensor.Sat8(ld8(aAddr, strideA, i)*ld8(bAddr, strideB, i)))
		}
	case isa.VFnMax8:
		for i := int32(0); i < n; i++ {
			a, b := ld8(aAddr, strideA, i), ld8(bAddr, strideB, i)
			if b > a {
				a = b
			}
			st8(i, int8(a))
		}
	case isa.VFnMin8:
		for i := int32(0); i < n; i++ {
			a, b := ld8(aAddr, strideA, i), ld8(bAddr, strideB, i)
			if b < a {
				a = b
			}
			st8(i, int8(a))
		}
	case isa.VFnMov8:
		for i := int32(0); i < n; i++ {
			st8(i, int8(ld8(aAddr, strideA, i)))
		}
	case isa.VFnRelu8:
		for i := int32(0); i < n; i++ {
			v := ld8(aAddr, strideA, i)
			if v < 0 {
				v = 0
			}
			st8(i, int8(v))
		}
	case isa.VFnRelu68:
		q6 := c.reg(in.RT)
		for i := int32(0); i < n; i++ {
			v := ld8(aAddr, strideA, i)
			if v < 0 {
				v = 0
			} else if v > q6 {
				v = q6
			}
			st8(i, int8(v))
		}
	case isa.VFnSigm8:
		inS := math.Float32frombits(uint32(c.sregs[isa.SRegActInScale]))
		outS := math.Float32frombits(uint32(c.sregs[isa.SRegActOutScale]))
		for i := int32(0); i < n; i++ {
			st8(i, tensor.Sigmoid8(int8(ld8(aAddr, strideA, i)), inS, outS))
		}
	case isa.VFnSilu8:
		inS := math.Float32frombits(uint32(c.sregs[isa.SRegActInScale]))
		outS := math.Float32frombits(uint32(c.sregs[isa.SRegActOutScale]))
		for i := int32(0); i < n; i++ {
			st8(i, tensor.SiLU8(int8(ld8(aAddr, strideA, i)), inS, outS))
		}
	case isa.VFnAddS8:
		s := c.reg(in.RT)
		for i := int32(0); i < n; i++ {
			st8(i, tensor.Sat8(ld8(aAddr, strideA, i)+s))
		}
	case isa.VFnMaxS8:
		s := c.reg(in.RT)
		for i := int32(0); i < n; i++ {
			v := ld8(aAddr, strideA, i)
			if s > v {
				v = s
			}
			st8(i, int8(v))
		}
	case isa.VFnQAdd8:
		mA := c.sregs[isa.SRegQMulA]
		mB := c.sregs[isa.SRegQMulB]
		for i := int32(0); i < n; i++ {
			st8(i, tensor.Sat8((ld8(aAddr, strideA, i)*mA+ld8(bAddr, strideB, i)*mB)>>qshift))
		}
	case isa.VFnQMul8:
		for i := int32(0); i < n; i++ {
			st8(i, tensor.Requant(ld8(aAddr, strideA, i)*ld8(bAddr, strideB, i), qmul, qshift))
		}
	case isa.VFnAdd32:
		for i := int32(0); i < n; i++ {
			st32(i, ld32(aAddr, strideA, i)+ld32(bAddr, strideB, i))
		}
	case isa.VFnMac8:
		for i := int32(0); i < n; i++ {
			st32(i, ld32(dAddr, strideD, i)+ld8(aAddr, strideA, i)*ld8(bAddr, strideB, i))
		}
	case isa.VFnAcc8:
		for i := int32(0); i < n; i++ {
			st32(i, ld32(dAddr, strideD, i)+ld8(aAddr, strideA, i))
		}
	case isa.VFnQnt:
		for i := int32(0); i < n; i++ {
			st8(i, tensor.Requant(ld32(aAddr, strideA, i), qmul, qshift))
		}
	case isa.VFnRSum8:
		var sum int32
		for i := int32(0); i < n; i++ {
			sum += ld8(aAddr, strideA, i)
		}
		binary.LittleEndian.PutUint32(c.local[dAddr:], uint32(sum))
	case isa.VFnRSum32:
		var sum int32
		for i := int32(0); i < n; i++ {
			sum += ld32(aAddr, strideA, i)
		}
		binary.LittleEndian.PutUint32(c.local[dAddr:], uint32(sum))
	case isa.VFnRMax8:
		best := int32(-128)
		for i := int32(0); i < n; i++ {
			if v := ld8(aAddr, strideA, i); v > best {
				best = v
			}
		}
		c.local[dAddr] = byte(int8(best))
	}

	lanes := int64(cfg.Core.VectorLanes)
	occ := (int64(n) + lanes - 1) / lanes
	if occ == 0 {
		occ = 1
	}
	done := issue + occ + int64(cfg.Core.VectorPipelineDepth)
	c.stats.Energy.VectorPJ += float64(n) * e.VectorOpPJ
	bytes := int64(n) * int64(sizeA+sizeB+sizeD)
	c.stats.Energy.LocalMemPJ += float64(bytes) * e.LocalMemPJPerByte
	c.retire(isa.UnitVector, issue, occ, done, ranges)
	c.time = issue + 1
	c.pc++
	return nil
}
