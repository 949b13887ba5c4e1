package compiler

import (
	"encoding/binary"
	"fmt"

	"cimflow/internal/isa"
)

// emitter builds one core's instruction stream: it manages a scratch
// register pool, materializes constants, caches special-register state to
// elide redundant SC_MTS instructions, and provides structured loops. This
// is the code-generation back end applying the conventional optimizations
// (constant reuse, redundant-write elimination, strength reduction of
// divisions by powers of two) as it emits.
type emitter struct {
	code []isa.Instruction
	free []uint8
	// sregKnown caches the last constant written to each special register.
	sregKnown map[int]int32
	err       error
}

func newEmitter() *emitter {
	e := &emitter{sregKnown: map[int]int32{}}
	// G1..G27 are allocatable; G28-G31 are reserved for loop bookkeeping.
	for r := uint8(27); r >= 1; r-- {
		e.free = append(e.free, r)
	}
	return e
}

func (e *emitter) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf(format, args...)
	}
}

// alloc takes a scratch register.
func (e *emitter) alloc() uint8 {
	if len(e.free) == 0 {
		e.fail("compiler: emitter out of scratch registers")
		return 1
	}
	r := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	return r
}

// release returns scratch registers to the pool.
func (e *emitter) release(regs ...uint8) {
	e.free = append(e.free, regs...)
}

func (e *emitter) emit(ins ...isa.Instruction) {
	e.code = append(e.code, ins...)
}

// li materializes a constant into a register.
func (e *emitter) li(r uint8, v int32) { e.emit(isa.LI(r, v)...) }

// constReg allocates a register holding the constant.
func (e *emitter) constReg(v int32) uint8 {
	r := e.alloc()
	e.li(r, v)
	return r
}

// setSReg writes a constant to a special register, eliding the write when
// the register is already known to hold the value.
func (e *emitter) setSReg(idx int, v int32) {
	if known, ok := e.sregKnown[idx]; ok && known == v {
		return
	}
	r := e.constReg(v)
	e.emit(isa.MTS(idx, r))
	e.release(r)
	e.sregKnown[idx] = v
}

// invalidateSRegs clears special-register knowledge (used at control-flow
// merge points where different paths may have set different values).
func (e *emitter) invalidateSRegs() { e.sregKnown = map[int]int32{} }

// loop emits a counted loop running body count times. count must be >= 1;
// zero-trip loops must be guarded by the caller. The body receives the loop
// induction register counting count-1 down to 0.
func (e *emitter) loop(count int32, body func(idx uint8)) {
	switch {
	case count <= 0:
		e.fail("compiler: loop with count %d", count)
		return
	case count == 1:
		idx := e.constReg(0)
		body(idx)
		e.release(idx)
		return
	}
	idx := e.alloc()
	e.li(idx, count-1)
	e.invalidateSRegs()
	top := len(e.code)
	body(idx)
	e.emit(isa.ALUI(isa.FnAdd, idx, idx, -1))
	e.emit(isa.Branch(isa.OpBGE, idx, isa.GZero, int32(top-(len(e.code)+1))))
	e.invalidateSRegs()
	e.release(idx)
}

// whileLT emits a loop that runs while G[a] < G[b]. The body must make
// progress toward termination.
func (e *emitter) whileLT(a, b uint8, body func()) {
	top := len(e.code)
	// if a >= b goto end (patched later)
	e.emit(isa.Branch(isa.OpBGE, a, b, 0))
	guard := len(e.code) - 1
	e.invalidateSRegs()
	body()
	e.emit(isa.Jmp(int32(top - (len(e.code) + 1))))
	e.code[guard].Imm = int32(len(e.code) - (guard + 1))
	e.invalidateSRegs()
}

// ifLT emits: if G[a] < G[b] { then() } else { els() }; either may be nil.
func (e *emitter) ifLT(a, b uint8, then func(), els func()) {
	e.emit(isa.Branch(isa.OpBGE, a, b, 0))
	guard := len(e.code) - 1
	e.invalidateSRegs()
	if then != nil {
		then()
	}
	if els == nil {
		e.code[guard].Imm = int32(len(e.code) - (guard + 1))
		e.invalidateSRegs()
		return
	}
	e.emit(isa.Jmp(0))
	jmp := len(e.code) - 1
	e.code[guard].Imm = int32(len(e.code) - (guard + 1))
	e.invalidateSRegs()
	els()
	e.code[jmp].Imm = int32(len(e.code) - (jmp + 1))
	e.invalidateSRegs()
}

// mulConst emits dst = src * k, using shifts for powers of two.
func (e *emitter) mulConst(dst, src uint8, k int32) {
	switch {
	case k == 0:
		e.emit(isa.ALU(isa.FnAdd, dst, isa.GZero, isa.GZero))
	case k == 1:
		if dst != src {
			e.emit(isa.ALU(isa.FnAdd, dst, src, isa.GZero))
		}
	case k > 0 && k&(k-1) == 0:
		sh := int32(0)
		for v := k; v > 1; v >>= 1 {
			sh++
		}
		e.emit(isa.ALUI(isa.FnSll, dst, src, sh))
	default:
		t := e.constReg(k)
		e.emit(isa.ALU(isa.FnMul, dst, src, t))
		e.release(t)
	}
}

// addConst emits dst = src + k without consuming a register when k fits
// the immediate field.
func (e *emitter) addConst(dst, src uint8, k int32) {
	if k >= -(1<<9) && k < 1<<9 {
		e.emit(isa.ALUI(isa.FnAdd, dst, src, k))
		return
	}
	t := e.constReg(k)
	e.emit(isa.ALU(isa.FnAdd, dst, src, t))
	e.release(t)
}

// pool accumulates a core's constant tables, deduplicating by content. The
// pool is materialized in global memory and copied into local address 0 by
// the startup preamble.
type pool struct {
	data  []byte
	index map[string]int32
}

func newPool() *pool { return &pool{index: map[string]int32{}} }

// table registers a byte table and returns its local-memory address.
func (p *pool) table(data []byte) int32 {
	key := string(data)
	if addr, ok := p.index[key]; ok {
		return addr
	}
	// 4-byte alignment for word tables.
	for len(p.data)%4 != 0 {
		p.data = append(p.data, 0)
	}
	addr := int32(len(p.data))
	p.data = append(p.data, data...)
	p.index[key] = addr
	return addr
}

// table32 registers a little-endian int32 table.
func (p *pool) table32(vals []int32) int32 {
	data := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(data[i*4:], uint32(v))
	}
	return p.table(data)
}

func (p *pool) size() int32 { return int32(len(p.data)) }
