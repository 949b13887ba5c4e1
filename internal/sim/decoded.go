package sim

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"cimflow/internal/isa"
	"cimflow/internal/tensor"
)

// This file is the predecoded execution pipeline: one handler per
// isa.Kind, dispatched through a single flat table from stepDecoded. A
// handler validates its operands and computes timing, energy and scoreboard
// state once from the shared registers, then applies its data effect to the
// image of every live lane (lanes.go); a one-lane run walks those loops
// once. What they compute is held to the timing-free reference executor of
// the tests (refexec_test.go) and to model.Execute on every zoo model ×
// strategy, what they cost to the golden Stats tables of internal/sim and
// internal/core. The steady-state loop does no per-step decoding, no slice
// allocation (scoreboard ranges live in core.rangeBuf, message payloads come
// from the chip's pool) and no repeated configuration lookups (latency,
// bandwidth and energy constants are hoisted onto the core at construction).
//
// Data effects are decided once per instruction, not once per element. The
// vector handler runs a unit-stride instruction whose destination is apart
// from its sources, or exactly on one, as whole-slice kernels (vecBulk,
// vecApplyBulk: AVX2 for VEC_MAC8, VEC_QNT and the ReLU clamps, a 256-byte
// table for the activations, straight Go loops for the rest of what the zoo
// executes) and anything else element by element (vecApply, also the kernels'
// test reference); CIM_MVM picks raw stores or the requant kernel VEC_QNT
// shares; VFILL is a memclr or a doubling copy.

// decHandler executes one predecoded micro-op.
type decHandler func(*core, *isa.Decoded) (stepStatus, error)

var decHandlers = [isa.NumKinds]decHandler{
	isa.KindNOP:     decNOP,
	isa.KindHALT:    decHALT,
	isa.KindJMP:     decJMP,
	isa.KindBranch:  decBranch,
	isa.KindScALU:   decScALU,
	isa.KindScALUI:  decScALUI,
	isa.KindScLUI:   decScLUI,
	isa.KindScMTS:   decScMTS,
	isa.KindScMFS:   decScMFS,
	isa.KindScMem:   decScMem,
	isa.KindMemCpy:  decMemCpy,
	isa.KindVFill:   decVFill,
	isa.KindSend:    decSend,
	isa.KindRecv:    decRecv,
	isa.KindBarrier: decBarrier,
	isa.KindCimLoad: decCimLoad,
	isa.KindCimMVM:  decCimMVM,
	isa.KindVec:     decVec,
}

// decFusedRun recurses through decHandlers, so it cannot appear in the
// composite literal above (initialization cycle).
func init() { decHandlers[isa.KindFusedRun] = decFusedRun }

// stepDecoded executes one predecoded micro-op. The chip scheduler
// guarantees this core currently has the minimum local time.
func (c *core) stepDecoded() (stepStatus, error) {
	if c.pc >= len(c.prog) {
		return stepHalted, c.errf("fell off the end of the program")
	}
	d := &c.prog[c.pc]
	c.stats.Energy.FrontendPJ += c.frontPJ
	c.stats.Instructions++
	return decHandlers[d.Kind](c, d)
}

// decFusedRun executes a run of statically core-local micro-ops fused at
// predecode time (isa.Fuse) as one dispatch: the head via its preserved
// Sub kind, then each successor via its own kind. Per-component stats and
// energy are accumulated in the same order and with the same float
// additions as stepping the unfused program one micro-op at a time, so the
// two are bit-exact. The run touches
// no cross-core state by construction, so executing it inside one
// scheduler step cannot reorder any interaction between cores.
func decFusedRun(c *core, d *isa.Decoded) (stepStatus, error) {
	st, err := decHandlers[d.Sub](c, d)
	if st != stepOK || err != nil {
		return st, err
	}
	for n := int(d.SubN) - 1; n > 0; n-- {
		d2 := &c.prog[c.pc]
		k := d2.Kind
		if k == isa.KindFusedRun {
			// Defensive: a doubly-fused program (Fuse refuses to create
			// one) still executes components one at a time.
			k = d2.Sub
		}
		c.stats.Energy.FrontendPJ += c.frontPJ
		c.stats.Instructions++
		if st, err = decHandlers[k](c, d2); st != stepOK || err != nil {
			return st, err
		}
	}
	return stepOK, nil
}

func decNOP(c *core, _ *isa.Decoded) (stepStatus, error) {
	c.time++
	c.pc++
	return stepOK, nil
}

func decHALT(c *core, _ *isa.Decoded) (stepStatus, error) {
	c.time++
	c.stats.HaltCycle = c.time
	c.halted = true
	return stepHalted, nil
}

func decJMP(c *core, d *isa.Decoded) (stepStatus, error) {
	c.time += 3 // resolve + 2-cycle fetch bubble
	c.pc = int(d.Target)
	return stepOK, nil
}

func decBranch(c *core, d *isa.Decoded) (stepStatus, error) {
	issue := c.regIssue(isa.UnitControl, d.Srcs[:d.NSrc])
	a, b := c.reg(d.RS), c.reg(d.RT)
	var taken bool
	switch d.Funct {
	case isa.BrEQ:
		taken = a == b
	case isa.BrNE:
		taken = a != b
	case isa.BrLT:
		taken = a < b
	case isa.BrGE:
		taken = a >= b
	}
	if taken {
		c.time = issue + 3
		c.pc = int(d.Target)
	} else {
		c.time = issue + 1
		c.pc++
	}
	return stepOK, nil
}

func decScALU(c *core, d *isa.Decoded) (stepStatus, error) {
	c.stats.Energy.ScalarPJ += c.chip.cfg.Energy.ScalarOpPJ
	issue := c.regIssue(isa.UnitScalar, d.Srcs[:d.NSrc])
	v, err := scalarALU(d.Funct, c.reg(d.RS), c.reg(d.RT))
	if err != nil {
		return stepOK, c.errf("%v", err)
	}
	c.setReg(d.RD, v, issue+c.latScalar)
	c.retire(isa.UnitScalar, issue, 1, issue+c.latScalar, nil)
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

// scalarALU is the scalar unit's arithmetic, shared by SC_ALU and SC_ALUI.
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

func decScALUI(c *core, d *isa.Decoded) (stepStatus, error) {
	c.stats.Energy.ScalarPJ += c.chip.cfg.Energy.ScalarOpPJ
	issue := c.regIssue(isa.UnitScalar, d.Srcs[:d.NSrc])
	v, err := scalarALU(d.Funct, c.reg(d.RS), d.Imm)
	if err != nil {
		return stepOK, c.errf("%v", err)
	}
	c.setReg(d.RT, v, issue+c.latScalar)
	c.retire(isa.UnitScalar, issue, 1, issue+c.latScalar, nil)
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

func decScLUI(c *core, d *isa.Decoded) (stepStatus, error) {
	c.stats.Energy.ScalarPJ += c.chip.cfg.Energy.ScalarOpPJ
	issue := c.regIssue(isa.UnitScalar, nil)
	c.setReg(d.RT, d.Imm<<16, issue+c.latScalar)
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

func decScMTS(c *core, d *isa.Decoded) (stepStatus, error) {
	c.stats.Energy.ScalarPJ += c.chip.cfg.Energy.ScalarOpPJ
	issue := c.regIssue(isa.UnitScalar, d.Srcs[:d.NSrc])
	if d.WritesSReg {
		c.sregs[d.Imm] = c.reg(d.RS)
	}
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

func decScMFS(c *core, d *isa.Decoded) (stepStatus, error) {
	c.stats.Energy.ScalarPJ += c.chip.cfg.Energy.ScalarOpPJ
	issue := c.regIssue(isa.UnitScalar, nil)
	c.setReg(d.RT, c.sregs[d.Imm], issue+c.latScalar)
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

// decScMem is the scalar load/store and the divergence guard: a load takes
// lane 0's value into the shared register and flags every live lane whose
// memory disagrees; a store writes the shared register to every live lane.
func decScMem(c *core, d *isa.Decoded) (stepStatus, error) {
	addr := c.reg(d.RS) + d.Imm
	size := d.MemSize
	global := addr >= GlobalBase
	var issue, done int64
	var ranges []memRange
	if global {
		issue = c.regIssue(isa.UnitScalar, d.Srcs[:d.NSrc])
		done = c.chip.mesh.MemAccess(c.id, int(size), issue)
		addr -= GlobalBase
		if end := int(addr) + int(size); end > len(c.chip.global[0]) && !c.chip.backGlobal(end) {
			return stepOK, c.errf("global access %d out of bounds", addr)
		}
	} else {
		r, err := c.localRange(addr, size)
		if err != nil {
			return stepOK, c.errf("%v", err)
		}
		c.rangeBuf[0] = r
		ranges = c.rangeBuf[:1]
		issue = c.hazardIssue(isa.UnitScalar, d.Srcs[:d.NSrc], ranges)
		c.stats.Energy.LocalMemPJ += float64(size) * c.chip.cfg.Energy.LocalMemPJPerByte
		done = issue + c.latMem
		addr = c.phys(addr)
	}
	if d.IsLoad {
		v := loadScalar(c.plane(0, global)[addr:], size)
		if d.RT != isa.GZero { // a discarded value cannot diverge anything
			for m := c.live() &^ 1; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				if loadScalar(c.plane(l, global)[addr:], size) != v {
					c.chip.divergedMask |= 1 << l // sticky until SetLanes or Reset
				}
			}
		}
		c.setReg(d.RT, v, done)
	} else {
		v := c.reg(d.RT)
		for m := c.live(); m != 0; m &= m - 1 {
			mem := c.plane(bits.TrailingZeros64(m), global)[addr:]
			if size == 4 {
				binary.LittleEndian.PutUint32(mem, uint32(v))
			} else {
				mem[0] = byte(v)
			}
		}
	}
	c.retire(isa.UnitScalar, issue, 1, done, ranges)
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

// loadScalar reads a sign-extended byte or a little-endian word.
func loadScalar(mem []byte, size int32) int32 {
	if size == 4 {
		return int32(binary.LittleEndian.Uint32(mem))
	}
	return int32(int8(mem[0]))
}

func decVFill(c *core, d *isa.Decoded) (stepStatus, error) {
	size := c.reg(d.RT)
	if size < 0 {
		return stepOK, c.errf("negative transfer size %d", size)
	}
	dst := c.reg(d.RS)
	r, err := c.localRange(dst, size)
	if err != nil {
		return stepOK, c.errf("%v", err)
	}
	c.rangeBuf[0] = r
	issue := c.hazardIssue(isa.UnitTransfer, d.Srcs[:d.NSrc], c.rangeBuf[:1])
	fill := byte(int8(d.Imm))
	dst = c.phys(dst)
	for m := c.live(); m != 0; m &= m - 1 {
		region := c.images[bits.TrailingZeros64(m)].local[dst : dst+size]
		if fill == 0 { // all the compiler emits, padding rows aside
			clear(region)
		} else if len(region) > 0 {
			region[0] = fill
			for n := 1; n < len(region); n *= 2 {
				copy(region[n:], region[:n])
			}
		}
	}
	occ := c.latMem + (int64(size)+c.bw-1)/c.bw
	c.stats.Energy.LocalMemPJ += float64(size) * c.chip.cfg.Energy.LocalMemPJPerByte
	c.retire(isa.UnitTransfer, issue, occ, issue+occ, c.rangeBuf[:1])
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

func decMemCpy(c *core, d *isa.Decoded) (stepStatus, error) {
	e := &c.chip.cfg.Energy
	size := c.reg(d.RT)
	if size < 0 {
		return stepOK, c.errf("negative transfer size %d", size)
	}
	src := c.reg(d.RS)
	dst := c.reg(d.RD) + d.Imm
	srcGlobal, dstGlobal := src >= GlobalBase, dst >= GlobalBase
	nr := 0
	if !srcGlobal {
		r, err := c.localRange(src, size)
		if err != nil {
			return stepOK, c.errf("%v", err)
		}
		c.rangeBuf[nr] = r
		nr++
	}
	if !dstGlobal {
		r, err := c.localRange(dst, size)
		if err != nil {
			return stepOK, c.errf("%v", err)
		}
		c.rangeBuf[nr] = r
		nr++
	}
	ranges := c.rangeBuf[:nr]
	issue := c.hazardIssue(isa.UnitTransfer, d.Srcs[:d.NSrc], ranges)

	// Functional copy, lane by lane.
	if srcGlobal {
		src -= GlobalBase
		if end := int(src) + int(size); end > len(c.chip.global[0]) && !c.chip.backGlobal(end) {
			return stepOK, c.errf("global read [%d+%d) out of bounds", src, size)
		}
	} else {
		src = c.phys(src)
	}
	if dstGlobal {
		dst -= GlobalBase
		if end := int(dst) + int(size); end > len(c.chip.global[0]) && !c.chip.backGlobal(end) {
			return stepOK, c.errf("global write [%d+%d) out of bounds", dst, size)
		}
	} else {
		dst = c.phys(dst)
	}
	for m := c.live(); m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		copy(c.plane(l, dstGlobal)[dst:], c.plane(l, srcGlobal)[src:src+size])
	}

	// Timing and energy.
	var done int64
	switch {
	case srcGlobal || dstGlobal:
		done = c.chip.mesh.MemAccess(c.id, int(size), issue)
		c.stats.Energy.LocalMemPJ += float64(size) * e.LocalMemPJPerByte // local side
	default:
		done = issue + c.latMem + (int64(size)+c.bw-1)/c.bw
		c.stats.Energy.LocalMemPJ += 2 * float64(size) * e.LocalMemPJPerByte
	}
	occ := done - issue
	c.retire(isa.UnitTransfer, issue, occ, done, ranges)
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

func decSend(c *core, d *isa.Decoded) (stepStatus, error) {
	src := c.reg(d.RS)
	size := c.reg(d.RT)
	dst := int(c.reg(d.RD))
	if dst < 0 || dst >= len(c.chip.cores) {
		return stepOK, c.errf("send to core %d out of range", dst)
	}
	r, err := c.localRange(src, size)
	if err != nil {
		return stepOK, c.errf("%v", err)
	}
	c.rangeBuf[0] = r
	issue := c.hazardIssue(isa.UnitTransfer, d.Srcs[:d.NSrc], c.rangeBuf[:1])
	// A diverged lane's stride keeps whatever the pooled buffer held: its
	// receiver is just as diverged and never reads it.
	payload := c.chip.getPayload(size * int32(c.chip.activeLanes))
	src = c.phys(src)
	for m := c.live(); m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		copy(payload[int32(l)*size:], c.images[l].local[src:src+size])
	}
	inject := (int64(size)+c.bw-1)/c.bw + 1
	arrival := c.chip.mesh.Transfer(c.id, dst, int(size), issue+inject)
	c.stats.Energy.LocalMemPJ += float64(size) * c.chip.cfg.Energy.LocalMemPJPerByte
	c.chip.deliver(c.id, dst, d.Imm, payload, arrival)
	c.retire(isa.UnitTransfer, issue, inject, issue+inject, c.rangeBuf[:1])
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

func decRecv(c *core, d *isa.Decoded) (stepStatus, error) {
	src := int(c.reg(d.RD))
	if src < 0 || src >= len(c.chip.cores) {
		return stepOK, c.errf("recv from core %d out of range", src)
	}
	tag := d.Imm
	msg, ok := c.chip.peek(src, c.id, tag)
	if !ok {
		c.blockSrc, c.blockTag = src, tag
		return stepBlocked, nil
	}
	dst := c.reg(d.RS)
	want := c.reg(d.RT)
	if lanes := c.chip.activeLanes; int(want)*lanes != len(msg.payload) {
		return stepOK, c.errf("recv size %d != message size %d (src %d tag %d)", want, len(msg.payload)/lanes, src, tag)
	}
	r, err := c.localRange(dst, want)
	if err != nil {
		return stepOK, c.errf("%v", err)
	}
	c.rangeBuf[0] = r
	issue := c.hazardIssue(isa.UnitTransfer, d.Srcs[:d.NSrc], c.rangeBuf[:1])
	if msg.arrival > issue {
		c.stats.StallCycles += msg.arrival - issue
		issue = msg.arrival
	}
	c.chip.pop(src, c.id, tag)
	dst = c.phys(dst)
	for m := c.live(); m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		copy(c.images[l].local[dst:dst+want], msg.payload[int32(l)*want:])
	}
	c.chip.putPayload(msg.payload)
	occ := (int64(want)+c.bw-1)/c.bw + 1
	c.stats.Energy.LocalMemPJ += float64(want) * c.chip.cfg.Energy.LocalMemPJPerByte
	c.retire(isa.UnitTransfer, issue, occ, issue+occ, c.rangeBuf[:1])
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

func decBarrier(c *core, d *isa.Decoded) (stepStatus, error) {
	c.barrierID = d.Flags
	c.time++
	c.pc++
	return stepBarrier, nil
}

// decCimLoad writes a weight tile into every live lane's macro group. Lanes
// share lane 0's group buffer while their loads agree (see image.mg): a lane
// that shares it keeps sharing when its source rows equal lane 0's, and
// otherwise first takes a private copy of the group as lane 0 held it before
// this load. Lane 0 writes last, so those copies see the old weights.
func decCimLoad(c *core, d *isa.Decoded) (stepStatus, error) {
	cfg := c.chip.cfg
	mgIdx := int(c.reg(d.RT))
	rows := c.reg(d.RE)
	chans := c.reg(d.RD)
	src := c.reg(d.RS)
	if mgIdx < 0 || mgIdx >= len(c.mg) {
		return stepOK, c.errf("macro group %d out of range [0,%d)", mgIdx, len(c.mg))
	}
	groupChans := int32(c.groupChans)
	rowOff := c.sregs[isa.SRegLoadRow]
	chanOff := c.sregs[isa.SRegLoadChan]
	if rows < 0 || chans < 0 || rowOff < 0 || chanOff < 0 ||
		rowOff+rows > c.macroRows || chanOff+chans > groupChans {
		return stepOK, c.errf("cim_load %dx%d at (%d,%d) exceeds macro group %dx%d",
			rows, chans, rowOff, chanOff, c.macroRows, groupChans)
	}
	size := rows * chans
	r, err := c.localRange(src, size)
	if err != nil {
		return stepOK, c.errf("%v", err)
	}
	c.rangeBuf[0] = r
	issue := c.hazardIssue(isa.UnitCIM, d.Srcs[:d.NSrc], c.rangeBuf[:1])
	c.mgDirty |= 1 << mgIdx
	src = c.phys(src)
	tile := c.local[src : src+size]
	old, w0 := c.mg[mgIdx], c.mg[mgIdx]
	if w0 == nil { // no load has backed lane 0's group yet
		w0 = make([]byte, int(c.macroRows)*c.groupChans)
		c.mg[mgIdx] = w0
	}
	at := rowOff*groupChans + chanOff
	for m := c.live() &^ 1; m != 0; m &= m - 1 {
		im := &c.images[bits.TrailingZeros64(m)]
		w, own := im.mg[mgIdx], im.local[src:src+size]
		if w == nil || sameBuffer(w, old) { // reads as lane 0's
			if bytes.Equal(own, tile) {
				im.mg[mgIdx] = w0
				continue
			}
			w = make([]byte, len(w0))
			copy(w, old)
			im.mg[mgIdx] = w
		}
		putTile(w, own, rows, chans, at, groupChans)
	}
	putTile(w0, tile, rows, chans, at, groupChans)
	occ := c.latMem + (int64(size)+c.bw-1)/c.bw
	c.stats.Energy.CIMLoadPJ += float64(size) * cfg.Energy.CIMLoadPJPerByte
	c.stats.Energy.LocalMemPJ += float64(size) * cfg.Energy.LocalMemPJPerByte
	c.retire(isa.UnitCIM, issue, occ, issue+occ, c.rangeBuf[:1])
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

// putTile writes a CIM_LOAD tile of rows x chans bytes, row-major in src,
// into macro group w at byte offset at, rows groupChans apart.
func putTile(w, src []byte, rows, chans, at, groupChans int32) {
	for row := int32(0); row < rows; row++ {
		base := at + row*groupChans
		copy(w[base:base+chans], src[row*chans:])
	}
}

// decCimMVM is the hot path of every DNN simulation. Beyond the predecoded
// flags it differs from a plain per-row loop in four measured-equivalent
// ways: the gather copy is skipped when the input is one contiguous segment
// (the MAC loop only reads it, so aliasing local memory is safe), the
// accumulator clear is a memclr, the whole MAC loop is one mvmLaneKernel
// call per lane that skips zero input rows (an AVX2 kernel where the CPU has
// one), and the writeback mode is tested once, not per channel. Every live lane runs those same loops over its own weights and
// input, whatever the lane count.
func decCimMVM(c *core, d *isa.Decoded) (stepStatus, error) {
	e := &c.chip.cfg.Energy
	rows := c.reg(d.RT)
	inAddr := c.reg(d.RS)
	if rows <= 0 || rows > c.macroRows {
		return stepOK, c.errf("mvm input length %d out of range (max %d)", rows, c.macroRows)
	}
	if int(d.MG) >= len(c.mg) {
		return stepOK, c.errf("mvm targets macro group %d of %d", d.MG, len(c.mg))
	}

	// Validate the input segments; the scoreboard tracks the first and last.
	segCount := c.sregs[isa.SRegSegCount]
	if segCount <= 0 || rows%segCount != 0 {
		return stepOK, c.errf("mvm length %d not divisible into %d segments", rows, segCount)
	}
	segLen := rows / segCount
	segStride := c.sregs[isa.SRegSegStride]
	nr := 0
	for s := int32(0); s < segCount; s++ {
		r, err := c.localRange(inAddr+s*segStride, segLen)
		if err != nil {
			return stepOK, c.errf("mvm segment %d: %v", s, err)
		}
		if s == 0 || s == segCount-1 {
			c.rangeBuf[nr] = r
			nr++
		}
	}

	// Gather each live lane's input and accumulate it into the lane's unit
	// accumulators.
	groupChans := c.groupChans
	live := c.live()
	for m := live; m != 0; m &= m - 1 {
		im := &c.images[bits.TrailingZeros64(m)]
		var in []byte
		if segCount == 1 {
			base := c.phys(inAddr)
			in = im.local[base : base+rows]
		} else {
			for s := int32(0); s < segCount; s++ {
				base := c.phys(inAddr + s*segStride)
				copy(im.gather[s*segLen:], im.local[base:base+segLen])
			}
			in = im.gather[:rows]
		}
		if !d.Accumulate {
			clear(im.cimAcc)
		}
		// A group never loaded holds zeros, which would add nothing.
		if w := im.mg[d.MG]; w != nil {
			mvmLaneKernel(in, w, im.cimAcc, groupChans)
		}
	}
	macs := int64(rows) * int64(groupChans)
	c.stats.MACs += macs
	c.stats.Energy.CIMComputePJ += float64(macs) * e.CIMMACpJ
	c.stats.Energy.LocalMemPJ += float64(rows) * e.LocalMemPJPerByte

	// Writeback.
	var wbBytes int32
	outAddr := c.reg(d.RE)
	if d.Writeback || d.WriteRaw {
		outChans := c.sregs[isa.SRegOutChans]
		if outChans <= 0 || outChans > int32(groupChans) {
			outChans = int32(groupChans)
		}
		elem := int32(1)
		if d.WriteRaw {
			elem = 4
		}
		wbBytes = outChans * elem
		r, err := c.localRange(outAddr, wbBytes)
		if err != nil {
			return stepOK, c.errf("mvm writeback: %v", err)
		}
		c.rangeBuf[nr] = r
		nr++
		qmul := c.sregs[isa.SRegQuantMul]
		qshift := uint(c.sregs[isa.SRegQuantShift]) & 31
		out := c.phys(outAddr)
		for m := live; m != 0; m &= m - 1 {
			im := &c.images[bits.TrailingZeros64(m)]
			mvmWriteback(d, im.cimAcc[:outChans], im.local[out:out+wbBytes], qmul, qshift)
		}
		c.stats.Energy.LocalMemPJ += float64(wbBytes) * e.LocalMemPJPerByte
	}

	ranges := c.rangeBuf[:nr]
	issue := c.hazardIssue(isa.UnitCIM, d.Srcs[:d.NSrc], ranges)
	// The unit is occupied for the bit-serial phases or the input streaming
	// time, whichever dominates.
	occ := c.mvmOcc
	if stream := (int64(rows) + c.bw - 1) / c.bw; stream > occ {
		occ = stream
	}
	done := issue + c.mvmLat + (int64(wbBytes)+c.bw-1)/c.bw
	c.retire(isa.UnitCIM, issue, occ, done, ranges)
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

// mvmWriteback stores one lane's accumulators to its validated output
// window: raw little-endian INT32, or requantized to INT8 with the optional
// fused ReLU. Which of the three is the instruction's choice, so it is made
// here once and not per channel; both requantized forms are one call of the
// requant kernel (AVX2 where the CPU has it, requant_amd64.s), the ReLU as
// its lower bound.
func mvmWriteback(d *isa.Decoded, acc []int32, out []byte, qmul int32, qshift uint) {
	switch {
	case d.WriteRaw:
		for ch, sum := range acc {
			binary.LittleEndian.PutUint32(out[4*ch:], uint32(sum))
		}
	case d.Relu:
		requant(out[:len(acc)], acc, qmul, qshift, 0)
	default:
		requant(out[:len(acc)], acc, qmul, qshift, -128)
	}
}

// decVec executes a memory-to-memory SIMD operation with the element sizes
// and reduction flag resolved at predecode time. It validates the operand
// windows and settles timing once, then applies the data effect to every
// live lane: whole-slice kernels over the windows when vecBulk admits the
// instruction, the per-element loops otherwise.
func decVec(c *core, d *isa.Decoded) (stepStatus, error) {
	e := &c.chip.cfg.Energy
	n := c.reg(d.RE)
	if n < 0 {
		return stepOK, c.errf("negative vector length %d", n)
	}
	sizeA, sizeB, sizeD := d.SizeA, d.SizeB, d.SizeD
	strideA := c.sregs[isa.SRegVecStrideA]
	strideB := c.sregs[isa.SRegVecStrideB]
	strideD := c.sregs[isa.SRegVecStrideD]
	aAddr, bAddr, dAddr := c.reg(d.RS), c.reg(d.RT), c.reg(d.RD)

	dN := n
	if d.Reduce {
		dN = 1
	}
	nr := 0
	var rB, rD memRange
	rA, err := c.vecSpan(aAddr, strideA, sizeA, n)
	if err != nil {
		return stepOK, c.errf("vector src A: %v", err)
	}
	c.rangeBuf[nr] = rA
	nr++
	if sizeB != 0 {
		rB, err = c.vecSpan(bAddr, strideB, sizeB, n)
		if err != nil {
			return stepOK, c.errf("vector src B: %v", err)
		}
		c.rangeBuf[nr] = rB
		nr++
	}
	if dN > 0 {
		if d.Reduce {
			rD, err = c.localRange(dAddr, sizeD)
		} else {
			rD, err = c.vecSpan(dAddr, strideD, sizeD, n)
		}
		if err != nil {
			return stepOK, c.errf("vector dst: %v", err)
		}
		c.rangeBuf[nr] = rD
		nr++
	}
	ranges := c.rangeBuf[:nr]
	issue := c.hazardIssue(isa.UnitVector, d.Srcs[:d.NSrc], ranges)

	bulk := c.vecBulk(d, rA, rB, rD)
	a, b, dst := c.phys(rA.lo), c.phys(rB.lo), c.phys(rD.lo)
	for m := c.live(); m != 0; m &= m - 1 {
		local := c.images[bits.TrailingZeros64(m)].local
		if bulk {
			vecApplyBulk(c, d, local[a:a+rA.hi-rA.lo], local[b:b+rB.hi-rB.lo], local[dst:dst+rD.hi-rD.lo])
		} else {
			vecApply(c, d, local)
		}
	}

	occ := (int64(n) + c.vlanes - 1) / c.vlanes
	if occ == 0 {
		occ = 1
	}
	done := issue + occ + c.vecDepth
	c.stats.Energy.VectorPJ += float64(n) * e.VectorOpPJ
	moved := int64(n) * int64(sizeA+sizeB+sizeD)
	c.stats.Energy.LocalMemPJ += float64(moved) * e.LocalMemPJPerByte
	c.retire(isa.UnitVector, issue, occ, done, ranges)
	c.time = issue + 1
	c.pc++
	return stepOK, nil
}

// vecBulk reports whether decVec may run the instruction as whole-slice
// kernels (vecApplyBulk) rather than element by element (vecApply). It may
// when the funct has kernels — the ones a zoo model executes; nothing pays
// for the rest — every stride is 1, which is every vector op the compiler
// emits, and the destination window is apart from each source window or
// the same window with the same element size (in place): then element i's
// result depends on no other element's, and the order a kernel visits them
// in cannot show. A partial overlap is order-dependent and keeps the loop.
// rA, rB and rD are the operand windows decVec validated (rB empty for
// one-source functs).
func (c *core) vecBulk(d *isa.Decoded, rA, rB, rD memRange) bool {
	switch d.Funct {
	case isa.VFnMax8, isa.VFnMov8, isa.VFnRelu8, isa.VFnSigm8, isa.VFnSilu8,
		isa.VFnQAdd8, isa.VFnQMul8, isa.VFnMac8, isa.VFnAcc8, isa.VFnQnt:
	case isa.VFnRelu68:
		// The clamp kernel compares signed bytes; a bound outside [0, 127]
		// is no INT8 clamp (a negative one is not even monotonic).
		if q6 := c.reg(d.RT); q6 < 0 || q6 > 127 {
			return false
		}
	default:
		return false
	}
	// An empty operand's window is its unvalidated base address.
	if c.reg(d.RE) == 0 || c.sregs[isa.SRegVecStrideA] != 1 || c.sregs[isa.SRegVecStrideD] != 1 {
		return false
	}
	if rD.overlaps(rA) && (rD.lo != rA.lo || d.SizeD != d.SizeA) {
		return false
	}
	if d.SizeB != 0 && (c.sregs[isa.SRegVecStrideB] != 1 ||
		rD.overlaps(rB) && (rD.lo != rB.lo || d.SizeD != d.SizeB)) {
		return false
	}
	return true
}

// actTable is the vector unit's activation lookup table: lut[x] is
// VEC_SIGM8 or VEC_SILU8 of the input byte x at one (SRegActInScale,
// SRegActOutScale) pair. It is filled by calling tensor.Sigmoid8/SiLU8 on
// all 256 inputs, so a lookup is bit-identical to the per-element loop by
// construction. Each core holds the one table of the activation it ran
// last; a chip runs on one goroutine, so there is no lock.
type actTable struct {
	funct             uint8 // 0 is VFnAdd8, no activation: the zero value matches nothing
	inScale, outScale int32 // float32 bits, as the special registers hold them
	lut               [256]byte
}

// lookup returns the table for funct at the given scales, refilling it when
// it holds another activation's.
func (t *actTable) lookup(funct uint8, inScale, outScale int32) *[256]byte {
	if t.funct != funct || t.inScale != inScale || t.outScale != outScale {
		fn := tensor.Sigmoid8
		if funct == isa.VFnSilu8 {
			fn = tensor.SiLU8
		}
		inS, outS := math.Float32frombits(uint32(inScale)), math.Float32frombits(uint32(outScale))
		for x := range t.lut {
			t.lut[x] = byte(fn(int8(x), inS, outS))
		}
		t.funct, t.inScale, t.outScale = funct, inScale, outScale
	}
	return &t.lut
}

// vecApplyBulk is vecApply for an instruction vecBulk admitted: a, b and dst
// are one lane's whole operand windows (n elements each at unit stride, b
// empty for one-source functs) and every funct is one straight loop over
// them, with no per-element address arithmetic. VEC_MAC8 and the ReLU clamps
// have AVX2 bodies (vec_amd64.s), and VEC_QNT is the requant kernel CIM_MVM's
// write-back runs (requant_amd64.s), fed its source window as bytes.
func vecApplyBulk(c *core, d *isa.Decoded, a, b, dst []byte) {
	qmul := c.sregs[isa.SRegQuantMul]
	qshift := uint(c.sregs[isa.SRegQuantShift]) & 31
	switch d.Funct {
	case isa.VFnMac8:
		vecMac8(dst, a, b)
	case isa.VFnRelu8:
		vecClamp8(dst, a, 127)
	case isa.VFnRelu68:
		vecClamp8(dst, a, int8(c.reg(d.RT)))
	case isa.VFnSigm8, isa.VFnSilu8:
		lut := c.act.lookup(d.Funct, c.sregs[isa.SRegActInScale], c.sregs[isa.SRegActOutScale])
		dst = dst[:len(a)]
		for i, x := range a {
			dst[i] = lut[x]
		}
	case isa.VFnMov8:
		copy(dst, a)
	case isa.VFnMax8:
		b, dst = b[:len(a)], dst[:len(a)]
		for i, x := range a {
			dst[i] = byte(max(int8(x), int8(b[i])))
		}
	case isa.VFnQAdd8:
		mA := c.sregs[isa.SRegQMulA]
		mB := c.sregs[isa.SRegQMulB]
		b, dst = b[:len(a)], dst[:len(a)]
		for i, x := range a {
			dst[i] = byte(tensor.Sat8((int32(int8(x))*mA + int32(int8(b[i]))*mB) >> qshift))
		}
	case isa.VFnQMul8:
		b, dst = b[:len(a)], dst[:len(a)]
		for i, x := range a {
			dst[i] = byte(tensor.Requant(int32(int8(x))*int32(int8(b[i])), qmul, qshift))
		}
	case isa.VFnAcc8:
		for i, x := range a {
			p := dst[4*i : 4*i+4]
			binary.LittleEndian.PutUint32(p, binary.LittleEndian.Uint32(p)+uint32(int8(x)))
		}
	case isa.VFnQnt:
		requantLE(dst, a, qmul, qshift, -128)
	}
}

// vecMac8Generic is the portable body of vecMac8: dst32[i] += a8[i] * b8[i]
// in wrapping int32 arithmetic, dst holding little-endian INT32s.
func vecMac8Generic(dst, a, b []byte) {
	b = b[:len(a)]
	for i, x := range a {
		p := dst[4*i : 4*i+4]
		binary.LittleEndian.PutUint32(p, binary.LittleEndian.Uint32(p)+uint32(int32(int8(x))*int32(int8(b[i]))))
	}
}

// vecClamp8Generic is the portable body of vecClamp8: dst8[i] = src8[i]
// clamped to [0, hi], with 0 <= hi.
func vecClamp8Generic(dst, src []byte, hi int8) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = byte(min(max(int8(x), 0), hi))
	}
}

// vecApply performs decVec's functional effect element by element — the
// loops of the validated SIMD operation at any stride and any operand
// overlap — against one lane's local memory backing. Operands and strides
// come from the core's lane-shared registers. It is what runs when vecBulk
// declines, and the reference the bulk kernels are tested against.
func vecApply(c *core, d *isa.Decoded, local []byte) {
	n := c.reg(d.RE)
	strideA := c.sregs[isa.SRegVecStrideA]
	strideB := c.sregs[isa.SRegVecStrideB]
	strideD := c.sregs[isa.SRegVecStrideD]
	aAddr, bAddr, dAddr := c.phys(c.reg(d.RS)), c.phys(c.reg(d.RT)), c.phys(c.reg(d.RD))
	qmul := c.sregs[isa.SRegQuantMul]
	qshift := uint(c.sregs[isa.SRegQuantShift]) & 31
	switch d.Funct {
	case isa.VFnAdd8:
		for i := int32(0); i < n; i++ {
			a := int32(int8(local[aAddr+i*strideA]))
			b := int32(int8(local[bAddr+i*strideB]))
			local[dAddr+i*strideD] = byte(tensor.Sat8(a + b))
		}
	case isa.VFnMul8:
		for i := int32(0); i < n; i++ {
			a := int32(int8(local[aAddr+i*strideA]))
			b := int32(int8(local[bAddr+i*strideB]))
			local[dAddr+i*strideD] = byte(tensor.Sat8(a * b))
		}
	case isa.VFnMax8:
		for i := int32(0); i < n; i++ {
			a := int32(int8(local[aAddr+i*strideA]))
			b := int32(int8(local[bAddr+i*strideB]))
			if b > a {
				a = b
			}
			local[dAddr+i*strideD] = byte(int8(a))
		}
	case isa.VFnMin8:
		for i := int32(0); i < n; i++ {
			a := int32(int8(local[aAddr+i*strideA]))
			b := int32(int8(local[bAddr+i*strideB]))
			if b < a {
				a = b
			}
			local[dAddr+i*strideD] = byte(int8(a))
		}
	case isa.VFnMov8:
		for i := int32(0); i < n; i++ {
			local[dAddr+i*strideD] = local[aAddr+i*strideA]
		}
	case isa.VFnRelu8:
		for i := int32(0); i < n; i++ {
			v := int32(int8(local[aAddr+i*strideA]))
			if v < 0 {
				v = 0
			}
			local[dAddr+i*strideD] = byte(int8(v))
		}
	case isa.VFnRelu68:
		q6 := c.reg(d.RT)
		for i := int32(0); i < n; i++ {
			v := int32(int8(local[aAddr+i*strideA]))
			if v < 0 {
				v = 0
			} else if v > q6 {
				v = q6
			}
			local[dAddr+i*strideD] = byte(int8(v))
		}
	case isa.VFnSigm8:
		inS := math.Float32frombits(uint32(c.sregs[isa.SRegActInScale]))
		outS := math.Float32frombits(uint32(c.sregs[isa.SRegActOutScale]))
		for i := int32(0); i < n; i++ {
			local[dAddr+i*strideD] = byte(tensor.Sigmoid8(int8(local[aAddr+i*strideA]), inS, outS))
		}
	case isa.VFnSilu8:
		inS := math.Float32frombits(uint32(c.sregs[isa.SRegActInScale]))
		outS := math.Float32frombits(uint32(c.sregs[isa.SRegActOutScale]))
		for i := int32(0); i < n; i++ {
			local[dAddr+i*strideD] = byte(tensor.SiLU8(int8(local[aAddr+i*strideA]), inS, outS))
		}
	case isa.VFnAddS8:
		s := c.reg(d.RT)
		for i := int32(0); i < n; i++ {
			a := int32(int8(local[aAddr+i*strideA]))
			local[dAddr+i*strideD] = byte(tensor.Sat8(a + s))
		}
	case isa.VFnMaxS8:
		s := c.reg(d.RT)
		for i := int32(0); i < n; i++ {
			v := int32(int8(local[aAddr+i*strideA]))
			if s > v {
				v = s
			}
			local[dAddr+i*strideD] = byte(int8(v))
		}
	case isa.VFnQAdd8:
		mA := c.sregs[isa.SRegQMulA]
		mB := c.sregs[isa.SRegQMulB]
		for i := int32(0); i < n; i++ {
			a := int32(int8(local[aAddr+i*strideA]))
			b := int32(int8(local[bAddr+i*strideB]))
			local[dAddr+i*strideD] = byte(tensor.Sat8((a*mA + b*mB) >> qshift))
		}
	case isa.VFnQMul8:
		for i := int32(0); i < n; i++ {
			a := int32(int8(local[aAddr+i*strideA]))
			b := int32(int8(local[bAddr+i*strideB]))
			local[dAddr+i*strideD] = byte(tensor.Requant(a*b, qmul, qshift))
		}
	case isa.VFnAdd32:
		for i := int32(0); i < n; i++ {
			a := int32(binary.LittleEndian.Uint32(local[aAddr+i*strideA*4:]))
			b := int32(binary.LittleEndian.Uint32(local[bAddr+i*strideB*4:]))
			binary.LittleEndian.PutUint32(local[dAddr+i*strideD*4:], uint32(a+b))
		}
	case isa.VFnMac8:
		for i := int32(0); i < n; i++ {
			a := int32(int8(local[aAddr+i*strideA]))
			b := int32(int8(local[bAddr+i*strideB]))
			acc := int32(binary.LittleEndian.Uint32(local[dAddr+i*strideD*4:]))
			binary.LittleEndian.PutUint32(local[dAddr+i*strideD*4:], uint32(acc+a*b))
		}
	case isa.VFnAcc8:
		for i := int32(0); i < n; i++ {
			a := int32(int8(local[aAddr+i*strideA]))
			acc := int32(binary.LittleEndian.Uint32(local[dAddr+i*strideD*4:]))
			binary.LittleEndian.PutUint32(local[dAddr+i*strideD*4:], uint32(acc+a))
		}
	case isa.VFnQnt:
		for i := int32(0); i < n; i++ {
			a := int32(binary.LittleEndian.Uint32(local[aAddr+i*strideA*4:]))
			local[dAddr+i*strideD] = byte(tensor.Requant(a, qmul, qshift))
		}
	case isa.VFnRSum8:
		var sum int32
		for i := int32(0); i < n; i++ {
			sum += int32(int8(local[aAddr+i*strideA]))
		}
		binary.LittleEndian.PutUint32(local[dAddr:], uint32(sum))
	case isa.VFnRSum32:
		var sum int32
		for i := int32(0); i < n; i++ {
			sum += int32(binary.LittleEndian.Uint32(local[aAddr+i*strideA*4:]))
		}
		binary.LittleEndian.PutUint32(local[dAddr:], uint32(sum))
	case isa.VFnRMax8:
		best := int32(-128)
		for i := int32(0); i < n; i++ {
			if v := int32(int8(local[aAddr+i*strideA])); v > best {
				best = v
			}
		}
		local[dAddr] = byte(int8(best))
	}
}
