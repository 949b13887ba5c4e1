package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
	"cimflow/internal/tensor"
)

// This file is the timing-free reference executor the simulator's data plane
// is tested against: the ISA's data semantics once more, as plainly as they
// go, with no scoreboard, energy, lanes, fusion or dirty record. Messages wait
// in per-(src, dst, tag) FIFOs, the way RECV matches them, and cores step
// round-robin until none can move; then a barrier every live core has reached
// is released, or the run is over. A core depends only on its own stream and
// the messages it receives, so each ends as the simulator leaves it whatever
// the order (global memory too, while no two cores touch the same bytes). It
// shares isa and scalarALU with the simulator and calls none of its kernels or
// handlers, and it runs only programs the simulator loaded: what the
// predecoder rejects (unknown opcodes, targets or special registers out of
// range) never reaches it.

// refCore is one core of the reference: architectural state only.
type refCore struct {
	id                int
	code              []isa.Instruction
	pc                int
	regs              [isa.NumGRegs]int32
	sregs             [isa.NumSRegs]int32
	local             []byte
	mg                [][]byte
	acc               []int32
	halted, atBarrier bool  // atBarrier: arrived at a BARRIER, pc already past it
	fault             error // the error the core stopped at
}

// refChip is the reference chip. global may be shorter than the simulated
// chip's global memory: it models that memory's first len(global) bytes, and
// an access past them faults.
type refChip struct {
	cfg      *arch.Config
	global   []byte
	readOnly []bool // per page of global memory: no store or MEM_CPY may write it
	cores    []*refCore
	fifos    map[msgKey][][]byte
}

// newRefChip loads progs on a power-on chip whose global memory is global.
func newRefChip(cfg *arch.Config, progs []Program, global []byte) *refChip {
	r := &refChip{cfg: cfg, global: global, fifos: map[msgKey][][]byte{}}
	for id := 0; id < cfg.NumCores(); id++ {
		c := &refCore{
			id:    id,
			local: make([]byte, cfg.Core.LocalMemBytes),
			mg:    make([][]byte, cfg.Core.NumMacroGroups),
			acc:   make([]int32, cfg.GroupChannels()),
			sregs: [isa.NumSRegs]int32{isa.SRegCoreID: int32(id), isa.SRegSegCount: 1,
				isa.SRegVecStrideA: 1, isa.SRegVecStrideB: 1, isa.SRegVecStrideD: 1, isa.SRegRowTiles: 1},
		}
		for g := range c.mg {
			c.mg[g] = make([]byte, cfg.Unit.MacroRows*cfg.GroupChannels())
		}
		r.cores = append(r.cores, c)
	}
	for _, p := range progs {
		r.cores[p.Core].code = p.Code
	}
	return r
}

func (c *refCore) live() bool { return len(c.code) > 0 && !c.halted && c.fault == nil }

// run executes the chip until no core can move; it reports false when that
// takes more than maxSteps instructions.
func (r *refChip) run(maxSteps int) bool {
	for steps := 0; steps <= maxSteps; {
		moved, live, waiting := false, 0, 0
		for _, c := range r.cores {
			if c.live() && !c.atBarrier && r.step(c) {
				moved = true
				steps++
			}
			if c.live() {
				live++
				if c.atBarrier {
					waiting++
				}
			}
		}
		if !moved && (live == 0 || waiting < live) {
			return true
		}
		for _, c := range r.cores {
			c.atBarrier = c.atBarrier && moved // released when nothing else can move
		}
	}
	return false
}

// span returns local memory [addr, addr+n), or an error when that leaves it.
func (c *refCore) span(addr, n int32) ([]byte, error) {
	if n < 0 || addr < 0 || int64(addr)+int64(n) > int64(len(c.local)) {
		return nil, fmt.Errorf("local [%d, %d+%d) out of bounds", addr, addr, n)
	}
	return c.local[addr : addr+n], nil
}

// mem is span over the unified address space: global memory from GlobalBase up.
func (r *refChip) mem(c *refCore, addr, n int32, write bool) ([]byte, error) {
	g := int64(addr) - GlobalBase
	switch {
	case addr < GlobalBase:
		return c.span(addr, n)
	case n < 0 || g+int64(n) > int64(len(r.global)):
		return nil, fmt.Errorf("global [%d+%d) out of bounds", g, n)
	case write && n > 0 && slices.Contains(r.readOnly[g>>dirtyShift:(g+int64(n)-1)>>dirtyShift+1], true):
		return nil, fmt.Errorf("global [%d+%d) is read-only", g, n)
	}
	return r.global[g : g+int64(n)], nil
}

// step executes c's next instruction; false means it is blocked on a RECV
// whose message has not been sent.
func (r *refChip) step(c *refCore) bool {
	if c.pc >= len(c.code) {
		c.fault = fmt.Errorf("fell off the end of the program")
		return true
	}
	in := c.code[c.pc]
	g := func(reg uint8) int32 { return c.regs[reg] }
	set := func(reg uint8, v int32) {
		if reg != isa.GZero {
			c.regs[reg] = v
		}
	}
	next := c.pc + 1
	var err error
	switch in.Op {
	case isa.OpNOP:
	case isa.OpHALT:
		c.halted = true
		return true
	case isa.OpJMP:
		next += int(in.Imm)
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE:
		a, b := g(in.RS), g(in.RT)
		if in.Op == isa.OpBEQ && a == b || in.Op == isa.OpBNE && a != b || in.Op == isa.OpBLT && a < b || in.Op == isa.OpBGE && a >= b {
			next += int(in.Imm)
		}
	case isa.OpScALU, isa.OpScALUI:
		b, dst := g(in.RT), in.RD
		if in.Op == isa.OpScALUI {
			b, dst = in.Imm, in.RT
		}
		var v int32
		if v, err = scalarALU(in.Funct, g(in.RS), b); err == nil {
			set(dst, v)
		}
	case isa.OpScLUI:
		set(in.RT, in.Imm<<16)
	case isa.OpScMTS:
		if in.Imm != isa.SRegCoreID { // read-only
			c.sregs[in.Imm] = g(in.RS)
		}
	case isa.OpScMFS:
		set(in.RT, c.sregs[in.Imm])
	case isa.OpScLD, isa.OpScST:
		var m []byte
		if m, err = r.mem(c, g(in.RS)+in.Imm, 4, in.Op == isa.OpScST); err == nil && in.Op == isa.OpScLD {
			set(in.RT, int32(binary.LittleEndian.Uint32(m)))
		} else if err == nil {
			binary.LittleEndian.PutUint32(m, uint32(g(in.RT)))
		}
	case isa.OpScLB, isa.OpScSB:
		var m []byte
		if m, err = r.mem(c, g(in.RS)+in.Imm, 1, in.Op == isa.OpScSB); err == nil && in.Op == isa.OpScLB {
			set(in.RT, int32(int8(m[0])))
		} else if err == nil {
			m[0] = byte(g(in.RT))
		}
	case isa.OpMemCpy:
		var src, dst []byte
		if src, err = r.mem(c, g(in.RS), g(in.RT), false); err == nil {
			if dst, err = r.mem(c, g(in.RD)+in.Imm, g(in.RT), true); err == nil {
				copy(dst, src)
			}
		}
	case isa.OpVFill:
		var dst []byte
		if dst, err = c.span(g(in.RS), g(in.RT)); err == nil {
			for i := range dst {
				dst[i] = byte(int8(in.Imm))
			}
		}
	case isa.OpSend:
		dst := g(in.RD)
		var src []byte
		if dst < 0 || int(dst) >= len(r.cores) {
			err = fmt.Errorf("send to core %d out of range", dst)
		} else if src, err = c.span(g(in.RS), g(in.RT)); err == nil {
			k := msgKey{c.id, int(dst), in.Imm}
			r.fifos[k] = append(r.fifos[k], slices.Clone(src))
		}
	case isa.OpRecv:
		src := g(in.RD)
		if src < 0 || int(src) >= len(r.cores) {
			err = fmt.Errorf("recv from core %d out of range", src)
			break
		}
		k := msgKey{int(src), c.id, in.Imm}
		q := r.fifos[k]
		if len(q) == 0 {
			return false
		}
		var dst []byte
		if int(g(in.RT)) != len(q[0]) {
			err = fmt.Errorf("recv size %d != message size %d", g(in.RT), len(q[0]))
		} else if dst, err = c.span(g(in.RS), g(in.RT)); err == nil {
			copy(dst, q[0])
			r.fifos[k] = q[1:]
		}
	case isa.OpBarrier:
		c.atBarrier = true
	case isa.OpCimLoad:
		err = r.cimLoad(c, in)
	case isa.OpCimMVM:
		err = r.cimMVM(c, in)
	case isa.OpVec:
		err = c.vec(in)
	}
	if err != nil {
		c.fault = err
		return true
	}
	c.pc = next
	return true
}

// cimLoad writes a rows x chans weight tile at the special registers' offsets.
func (r *refChip) cimLoad(c *refCore, in isa.Instruction) error {
	group, rows, chans := c.regs[in.RT], c.regs[in.RE], c.regs[in.RD]
	row0, chan0 := c.sregs[isa.SRegLoadRow], c.sregs[isa.SRegLoadChan]
	width := int32(r.cfg.GroupChannels())
	if group < 0 || int(group) >= len(c.mg) || rows < 0 || chans < 0 || row0 < 0 || chan0 < 0 ||
		row0+rows > int32(r.cfg.Unit.MacroRows) || chan0+chans > width {
		return fmt.Errorf("cim_load %dx%d at (%d,%d) into macro group %d out of range", rows, chans, row0, chan0, group)
	}
	src, err := c.span(c.regs[in.RS], rows*chans)
	if err != nil {
		return err
	}
	for i := int32(0); i < rows; i++ {
		for j := int32(0); j < chans; j++ {
			c.mg[group][(row0+i)*width+chan0+j] = src[i*chans+j]
		}
	}
	return nil
}

// cimMVM multiplies the gathered input into the accumulator and writes back.
func (r *refChip) cimMVM(c *refCore, in isa.Instruction) error {
	rows, width := c.regs[in.RT], int32(r.cfg.GroupChannels())
	group := isa.MVMFlagMG(in.Flags)
	segs, stride := c.sregs[isa.SRegSegCount], c.sregs[isa.SRegSegStride]
	if rows <= 0 || rows > int32(r.cfg.Unit.MacroRows) || group >= len(c.mg) || segs <= 0 || rows%segs != 0 {
		return fmt.Errorf("mvm of %d rows in %d segments on macro group %d out of range", rows, segs, group)
	}
	var input []byte
	for s := int32(0); s < segs; s++ {
		seg, err := c.span(c.regs[in.RS]+s*stride, rows/segs)
		if err != nil {
			return err
		}
		input = append(input, seg...)
	}
	if in.Flags&isa.MVMFlagAccumulate == 0 {
		clear(c.acc)
	}
	for i, x := range input {
		for j := range c.acc {
			c.acc[j] += int32(int8(x)) * int32(int8(c.mg[group][int32(i)*width+int32(j)]))
		}
	}
	raw := in.Flags&isa.MVMFlagWriteRaw != 0
	if !raw && in.Flags&isa.MVMFlagWriteback == 0 {
		return nil
	}
	chans := c.sregs[isa.SRegOutChans]
	if chans <= 0 || chans > width {
		chans = width
	}
	elem := map[bool]int32{false: 1, true: 4}[raw]
	out, err := c.span(c.regs[in.RE], chans*elem)
	if err != nil {
		return err
	}
	for j, sum := range c.acc[:chans] {
		if raw {
			binary.LittleEndian.PutUint32(out[4*j:], uint32(sum))
			continue
		}
		v := tensor.Requant(sum, c.sregs[isa.SRegQuantMul], uint(c.sregs[isa.SRegQuantShift])&31)
		if in.Flags&isa.MVMFlagRelu != 0 && v < 0 {
			v = 0
		}
		out[j] = byte(v)
	}
	return nil
}

// vec runs a vector instruction element by element, in order, every element
// validated before any is written.
func (c *refCore) vec(in isa.Instruction) error {
	sa, sb, sd, err := isa.VecElemSizes(in.Funct)
	if err != nil {
		return err
	}
	n, reduce := c.regs[in.RE], isa.VecIsReduction(in.Funct)
	if n < 0 {
		return fmt.Errorf("negative vector length %d", n)
	}
	type operand struct{ base, stride, size int32 }
	a, b, d := operand{c.regs[in.RS], c.sregs[isa.SRegVecStrideA], sa},
		operand{c.regs[in.RT], c.sregs[isa.SRegVecStrideB], sb}, operand{c.regs[in.RD], c.sregs[isa.SRegVecStrideD], sd}
	at := func(o operand, i int32) int64 { return int64(o.base) + int64(i)*int64(o.stride)*int64(o.size) }
	ok := func(o operand, i int32) bool { return at(o, i) >= 0 && at(o, i)+int64(o.size) <= int64(len(c.local)) }
	for i := int32(0); i < n; i++ {
		if !ok(a, i) || sb != 0 && !ok(b, i) || !reduce && !ok(d, i) {
			return fmt.Errorf("vector element %d out of bounds", i)
		}
	}
	if reduce && !ok(d, 0) {
		return fmt.Errorf("vector reduction destination out of bounds")
	}
	ld := func(o operand, i int32) int32 {
		if o.size == 1 {
			return int32(int8(c.local[at(o, i)]))
		}
		return int32(binary.LittleEndian.Uint32(c.local[at(o, i):]))
	}
	st := func(i, v int32) {
		if sd == 1 {
			c.local[at(d, i)] = byte(v)
		} else {
			binary.LittleEndian.PutUint32(c.local[at(d, i):], uint32(v))
		}
	}
	if reduce {
		acc := int32(0)
		if in.Funct == isa.VFnRMax8 {
			acc = -128
		}
		for i := int32(0); i < n; i++ {
			if in.Funct == isa.VFnRMax8 {
				acc = max(acc, ld(a, i))
			} else {
				acc += ld(a, i)
			}
		}
		st(0, acc)
		return nil
	}
	s := c.regs[in.RT] // the scalar operand of the one-source functs
	qmul, qshift := c.sregs[isa.SRegQuantMul], uint(c.sregs[isa.SRegQuantShift])&31
	inS := math.Float32frombits(uint32(c.sregs[isa.SRegActInScale]))
	outS := math.Float32frombits(uint32(c.sregs[isa.SRegActOutScale]))
	f := map[uint8]func(x, y, d int32) int32{
		isa.VFnAdd8:   func(x, y, _ int32) int32 { return int32(tensor.Sat8(x + y)) },
		isa.VFnMul8:   func(x, y, _ int32) int32 { return int32(tensor.Sat8(x * y)) },
		isa.VFnMax8:   func(x, y, _ int32) int32 { return max(x, y) },
		isa.VFnMin8:   func(x, y, _ int32) int32 { return min(x, y) },
		isa.VFnMov8:   func(x, _, _ int32) int32 { return x },
		isa.VFnRelu8:  func(x, _, _ int32) int32 { return max(x, 0) },
		isa.VFnRelu68: func(x, _, _ int32) int32 { return min(x, s) &^ (x >> 31) }, // 0 for any negative x, whatever s is
		isa.VFnSigm8:  func(x, _, _ int32) int32 { return int32(tensor.Sigmoid8(int8(x), inS, outS)) },
		isa.VFnSilu8:  func(x, _, _ int32) int32 { return int32(tensor.SiLU8(int8(x), inS, outS)) },
		isa.VFnAddS8:  func(x, _, _ int32) int32 { return int32(tensor.Sat8(x + s)) },
		isa.VFnMaxS8:  func(x, _, _ int32) int32 { return max(x, s) },
		isa.VFnQAdd8: func(x, y, _ int32) int32 {
			return int32(tensor.Sat8((x*c.sregs[isa.SRegQMulA] + y*c.sregs[isa.SRegQMulB]) >> qshift))
		},
		isa.VFnQMul8: func(x, y, _ int32) int32 { return int32(tensor.Requant(x*y, qmul, qshift)) },
		isa.VFnAdd32: func(x, y, _ int32) int32 { return x + y },
		isa.VFnMac8:  func(x, y, d int32) int32 { return d + x*y },
		isa.VFnAcc8:  func(x, _, d int32) int32 { return d + x },
		isa.VFnQnt:   func(x, _, _ int32) int32 { return int32(tensor.Requant(x, qmul, qshift)) },
	}[in.Funct]
	for i := int32(0); i < n; i++ {
		y := int32(0)
		if sb != 0 {
			y = ld(b, i)
		}
		st(i, f(ld(a, i), y, ld(d, i)))
	}
	return nil
}
