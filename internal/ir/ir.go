// Package ir provides the compiler's linear code representation and the
// conventional late optimization passes applied during code generation:
// dead-write elimination, trivial-move elimination, and NOP compaction with
// relative-branch retargeting. It substitutes for the MLIR pass plumbing
// the paper builds on: the transformations themselves are implemented
// directly over CIMFlow ISA instruction streams.
package ir

import (
	"fmt"

	"cimflow/internal/isa"
)

// Stats counts the effect of an optimization run.
type Stats struct {
	DeadWrites   int // pure register writes never observed
	TrivialMoves int // additions of zero onto the same register
	NopsRemoved  int
}

// Optimize applies all passes to a program and returns the compacted result.
func Optimize(prog []isa.Instruction) ([]isa.Instruction, Stats, error) {
	var st Stats
	work := make([]isa.Instruction, len(prog))
	copy(work, prog)
	st.TrivialMoves = markTrivialMoves(work)
	st.DeadWrites = markDeadWrites(work)
	out, removed, err := Compact(work)
	if err != nil {
		return nil, st, err
	}
	st.NopsRemoved = removed
	return out, st, nil
}

// isBranch reports whether the instruction transfers control relatively.
func isBranch(op isa.Opcode) bool {
	switch op {
	case isa.OpJMP, isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE:
		return true
	}
	return false
}

// leaders marks basic-block leader indices: branch targets and fall-through
// successors of branches.
func leaders(prog []isa.Instruction) []bool {
	lead := make([]bool, len(prog)+1)
	lead[0] = true
	for i, in := range prog {
		if isBranch(in.Op) {
			t := i + 1 + int(in.Imm)
			if t >= 0 && t <= len(prog) {
				lead[t] = true
			}
			if i+1 <= len(prog) {
				lead[i+1] = true
			}
		}
	}
	return lead
}

// pureWrite returns the register written by a side-effect-free scalar
// instruction, or -1.
func pureWrite(in isa.Instruction) int {
	switch in.Op {
	case isa.OpScALU:
		// Division and remainder can fault; keep them.
		if in.Funct == isa.FnDiv || in.Funct == isa.FnRem {
			return -1
		}
		return int(in.RD)
	case isa.OpScALUI:
		if in.Funct == isa.FnDiv || in.Funct == isa.FnRem {
			return -1
		}
		return int(in.RT)
	case isa.OpScLUI, isa.OpScMFS:
		return int(in.RT)
	}
	return -1
}

// reads returns the general registers an instruction reads.
func reads(in isa.Instruction) []uint8 {
	d, ok := isa.Lookup(in.Op)
	if !ok {
		return nil
	}
	var out []uint8
	switch in.Op {
	case isa.OpScALU:
		out = []uint8{in.RS, in.RT}
	case isa.OpScALUI, isa.OpScMTS:
		out = []uint8{in.RS}
	case isa.OpScLUI, isa.OpScMFS, isa.OpJMP, isa.OpNOP, isa.OpHALT, isa.OpBarrier:
	case isa.OpScLD, isa.OpScLB:
		out = []uint8{in.RS}
	case isa.OpScST, isa.OpScSB:
		out = []uint8{in.RS, in.RT}
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE:
		out = []uint8{in.RS, in.RT}
	case isa.OpVec:
		out = []uint8{in.RS, in.RT, in.RD, in.RE}
	case isa.OpCimLoad:
		out = []uint8{in.RS, in.RT, in.RE, in.RD}
	case isa.OpCimMVM:
		out = []uint8{in.RS, in.RT, in.RE}
	case isa.OpMemCpy, isa.OpSend, isa.OpRecv, isa.OpVFill:
		out = []uint8{in.RS, in.RT, in.RD}
	default:
		_ = d
		out = []uint8{in.RS, in.RT, in.RE, in.RD}
	}
	return out
}

// markTrivialMoves replaces additions of zero onto the same register with
// NOPs.
func markTrivialMoves(prog []isa.Instruction) int {
	n := 0
	for i, in := range prog {
		if in.Op == isa.OpScALUI && in.Funct == isa.FnAdd && in.Imm == 0 && in.RT == in.RS {
			prog[i] = isa.Nop()
			n++
		}
	}
	return n
}

// markDeadWrites replaces pure register writes that are re-written before
// any read within the same basic block with NOPs.
func markDeadWrites(prog []isa.Instruction) int {
	lead := leaders(prog)
	n := 0
	for i, in := range prog {
		w := pureWrite(in)
		if w <= 0 { // G0 writes are architectural no-ops but cheap; keep
			continue
		}
		// Scan forward within the block.
		for j := i + 1; j < len(prog); j++ {
			if lead[j] || isBranch(prog[j].Op) {
				break
			}
			seen := false
			for _, r := range reads(prog[j]) {
				if int(r) == w {
					seen = true
					break
				}
			}
			if seen {
				break
			}
			if pw := pureWrite(prog[j]); pw == w {
				prog[i] = isa.Nop()
				n++
				break
			}
		}
	}
	return n
}

// Compact removes NOP instructions and retargets every relative branch,
// returning the shortened program and the number of instructions removed.
func Compact(prog []isa.Instruction) ([]isa.Instruction, int, error) {
	newPos := make([]int, len(prog)+1)
	pos := 0
	for i, in := range prog {
		newPos[i] = pos
		if in.Op != isa.OpNOP {
			pos++
		}
	}
	newPos[len(prog)] = pos
	out := make([]isa.Instruction, 0, pos)
	for i, in := range prog {
		if in.Op == isa.OpNOP {
			continue
		}
		if isBranch(in.Op) {
			t := i + 1 + int(in.Imm)
			if t < 0 || t > len(prog) {
				return nil, 0, fmt.Errorf("ir: branch at %d targets %d outside program", i, t)
			}
			in.Imm = int32(newPos[t] - (newPos[i] + 1))
		}
		out = append(out, in)
	}
	return out, len(prog) - len(out), nil
}
