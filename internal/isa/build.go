package isa

// Constructors used by the code generator. They keep instruction-building
// call sites short and make illegal field combinations unrepresentable.

// ALU builds G[rd] = G[rs] <fn> G[rt].
func ALU(fn uint8, rd, rs, rt uint8) Instruction {
	return Instruction{Op: OpScALU, Funct: fn, RD: rd, RS: rs, RT: rt}
}

// ALUI builds G[rt] = G[rs] <fn> imm. The immediate must fit 10 signed bits;
// the code generator materializes larger constants with LI.
func ALUI(fn uint8, rt, rs uint8, imm int32) Instruction {
	return Instruction{Op: OpScALUI, Funct: fn, RT: rt, RS: rs, Imm: imm}
}

// LUI builds G[rt] = imm << 16.
func LUI(rt uint8, imm int32) Instruction {
	return Instruction{Op: OpScLUI, RT: rt, Imm: imm}
}

// LI materializes a 32-bit constant into rt: one ADDI for 10-bit constants,
// one LUI for constants with zero low halfword, and otherwise a
// shift-and-or byte ladder of at most seven instructions.
func LI(rt uint8, v int32) []Instruction {
	if v >= -(1<<9) && v < 1<<9 {
		return []Instruction{ALUI(FnAdd, rt, GZero, v)}
	}
	if v&0xffff == 0 {
		return []Instruction{LUI(rt, v>>16)}
	}
	// Smallest signed byte width holding v.
	k := 4
	for w := 2; w < 4; w++ {
		bound := int64(1) << (8*w - 1)
		if int64(v) >= -bound && int64(v) < bound {
			k = w
			break
		}
	}
	// Load the most significant byte sign-extended, then shift in the rest.
	out := []Instruction{ALUI(FnAdd, rt, GZero, int32(int8(uint32(v)>>(8*(k-1)))))}
	for b := k - 2; b >= 0; b-- {
		out = append(out,
			ALUI(FnSll, rt, rt, 8),
			ALUI(FnOr, rt, rt, int32(uint32(v)>>(8*b)&0xff)),
		)
	}
	return out
}

// Load builds G[rt] = mem32[G[rs]+offset].
func Load(rt, rs uint8, offset int32) Instruction {
	return Instruction{Op: OpScLD, RT: rt, RS: rs, Imm: offset}
}

// Store builds mem32[G[rs]+offset] = G[rt].
func Store(rt, rs uint8, offset int32) Instruction {
	return Instruction{Op: OpScST, RT: rt, RS: rs, Imm: offset}
}

// MTS builds S[sreg] = G[rs].
func MTS(sreg int, rs uint8) Instruction {
	return Instruction{Op: OpScMTS, RS: rs, Imm: int32(sreg)}
}

// Jmp builds an unconditional relative jump by offset instructions.
func Jmp(offset int32) Instruction { return Instruction{Op: OpJMP, Imm: offset} }

// Branch builds a conditional relative branch.
func Branch(op Opcode, rs, rt uint8, offset int32) Instruction {
	return Instruction{Op: op, RS: rs, RT: rt, Imm: offset}
}

// MemCpy builds mem[G[rd]+offset ..] = mem[G[rs] ..][0:G[rt]] over the
// unified address space.
func MemCpy(rdDst, rsSrc, rtSize uint8, offset int32) Instruction {
	return Instruction{Op: OpMemCpy, RD: rdDst, RS: rsSrc, RT: rtSize, Imm: offset}
}

// Send builds a transfer of G[rt] bytes at local address G[rs] to core
// G[rd] with message tag.
func Send(rsAddr, rtSize, rdCore uint8, tag int32) Instruction {
	return Instruction{Op: OpSend, RS: rsAddr, RT: rtSize, RD: rdCore, Imm: tag}
}

// Recv blocks until the message with the given tag from core G[rd] arrives,
// then stores its G[rt] bytes at local address G[rs].
func Recv(rsAddr, rtSize, rdCore uint8, tag int32) Instruction {
	return Instruction{Op: OpRecv, RS: rsAddr, RT: rtSize, RD: rdCore, Imm: tag}
}

// Barrier builds a chip-wide barrier with the given id.
func Barrier(id uint16) Instruction { return Instruction{Op: OpBarrier, Flags: id} }

// VFill fills G[rt] bytes at G[rs] with the constant byte value.
func VFill(rsAddr, rtSize uint8, value int8) Instruction {
	return Instruction{Op: OpVFill, RS: rsAddr, RT: rtSize, Imm: int32(value)}
}

// CimLoad loads G[re] rows x G[rd] channels of INT8 weights from local
// memory address G[rs] (row-major) into macro group G[rt], at the row and
// channel offsets held in SRegLoadRow/SRegLoadChan.
func CimLoad(rtMG, rsAddr, reRows, rdChans uint8) Instruction {
	return Instruction{Op: OpCimLoad, RT: rtMG, RS: rsAddr, RE: reRows, RD: rdChans}
}

// CimMVM performs a matrix-vector multiply: G[rt] INT8 inputs gathered from
// local memory at G[rs] (SRegSegCount segments of SRegSegStride bytes apart)
// against one macro group's weights, accumulating into the CIM unit
// accumulator and writing back per flags (build flags with MVMFlags).
func CimMVM(rsIn, rtLen, reOut uint8, flags uint16) Instruction {
	return Instruction{Op: OpCimMVM, RS: rsIn, RT: rtLen, RE: reOut, Flags: flags}
}

// Vec builds a vector-unit operation: fn over G[re] elements from addresses
// G[rs] and G[rt] into G[rd].
func Vec(fn uint8, rdDst, rsA, rtB, reLen uint8) Instruction {
	return Instruction{Op: OpVec, Funct: fn, RD: rdDst, RS: rsA, RT: rtB, RE: reLen}
}

// Nop builds a no-operation.
func Nop() Instruction { return Instruction{Op: OpNOP} }

// Halt builds the core-stop instruction.
func Halt() Instruction { return Instruction{Op: OpHALT} }
