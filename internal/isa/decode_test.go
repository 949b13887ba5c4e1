package isa

import (
	"strings"
	"testing"
	"unsafe"
)

func TestPredecodeResolvesStaticFields(t *testing.T) {
	code, err := Assemble(`
		SC_ADDI G1, G0, 5
	loop:	SC_ADD G2, G1, G1
		VEC_ADD G3, G2, G2, G4
		SC_ADDI G1, G1, -1
		BNE G1, G0, %loop
		JMP %loop
		HALT
	`)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Predecode(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(code) {
		t.Fatalf("predecoded %d of %d instructions", len(dec), len(code))
	}
	if dec[0].Kind != KindScALUI || dec[0].NSrc != 1 || dec[0].Srcs[0] != 0 {
		t.Errorf("SC_ADDI decoded to %+v", dec[0])
	}
	if dec[1].Kind != KindScALU || dec[1].Funct != FnAdd || dec[1].NSrc != 2 {
		t.Errorf("SC_ALU decoded to %+v", dec[1])
	}
	v := dec[2]
	if v.Kind != KindVec || v.SizeA != 1 || v.SizeB != 1 || v.SizeD != 1 || v.Reduce {
		t.Errorf("VEC_ADD decoded to %+v", v)
	}
	if v.Unit != UnitVector {
		t.Errorf("VEC_ADD resolved unit %v", v.Unit)
	}
	br := dec[4]
	if br.Kind != KindBranch || br.Funct != BrNE || br.Target != 1 {
		t.Errorf("BNE decoded to %+v", br)
	}
	if j := dec[5]; j.Kind != KindJMP || j.Target != 1 {
		t.Errorf("JMP decoded to %+v", j)
	}
	if dec[6].Kind != KindHALT {
		t.Errorf("HALT decoded to %+v", dec[6])
	}
}

func TestPredecodeVectorSizes(t *testing.T) {
	for fn := uint8(0); fn < numVectorFn; fn++ {
		dec, err := Predecode([]Instruction{{Op: OpVec, Funct: fn}})
		if err != nil {
			t.Fatalf("funct %d: %v", fn, err)
		}
		a, b, d, err := VecElemSizes(fn)
		if err != nil {
			t.Fatal(err)
		}
		got := dec[0]
		if got.SizeA != a || got.SizeB != b || got.SizeD != d {
			t.Errorf("funct %d: sizes (%d,%d,%d), want (%d,%d,%d)",
				fn, got.SizeA, got.SizeB, got.SizeD, a, b, d)
		}
		if got.Reduce != VecIsReduction(fn) {
			t.Errorf("funct %d: reduce %v", fn, got.Reduce)
		}
	}
}

func TestPredecodeMVMFlags(t *testing.T) {
	in := Instruction{Op: OpCimMVM, Flags: MVMFlags(7, MVMFlagAccumulate|MVMFlagWriteback|MVMFlagRelu)}
	dec, err := Predecode([]Instruction{in})
	if err != nil {
		t.Fatal(err)
	}
	d := dec[0]
	if d.MG != 7 || !d.Accumulate || !d.Writeback || d.WriteRaw || !d.Relu {
		t.Errorf("MVM flags decoded to %+v", d)
	}
}

func TestPredecodeRejectsIllegalEncodings(t *testing.T) {
	cases := []struct {
		name string
		code []Instruction
		want string
	}{
		{"unknown opcode", []Instruction{{Op: Opcode(63)}}, "unknown opcode"},
		{"jump out of range", []Instruction{{Op: OpJMP, Imm: 9}}, "jump target"},
		{"jump negative", []Instruction{{Op: OpJMP, Imm: -5}}, "jump target"},
		{"branch out of range", []Instruction{{Op: OpBEQ, Imm: 100}}, "branch target"},
		{"bad scalar funct", []Instruction{{Op: OpScALU, Funct: numScalarFn}}, "scalar funct"},
		{"bad vector funct", []Instruction{{Op: OpVec, Funct: numVectorFn}}, "vector funct"},
		{"sreg out of range", []Instruction{{Op: OpScMTS, Imm: NumSRegs}}, "special register"},
		{"sreg negative", []Instruction{{Op: OpScMFS, Imm: -1}}, "special register"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Predecode(tc.code); err == nil {
				t.Fatal("predecode accepted an illegal encoding")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPredecodeJumpToEnd: a jump target equal to the program length is legal
// at predecode time (the fault is a fetch past the end at run time), keeping
// predecode validation no stricter than the architectural interpreter.
func TestPredecodeJumpToEnd(t *testing.T) {
	if _, err := Predecode([]Instruction{{Op: OpJMP, Imm: 0}}); err != nil {
		t.Fatalf("jump to program end rejected: %v", err)
	}
}

func TestPredecodeCoreIDReadOnly(t *testing.T) {
	dec, err := Predecode([]Instruction{
		{Op: OpScMTS, Imm: SRegCoreID},
		{Op: OpScMTS, Imm: SRegQuantMul},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec[0].WritesSReg {
		t.Error("MTS to the core-id register decoded as a write")
	}
	if !dec[1].WritesSReg {
		t.Error("MTS to a writable register decoded as a no-op")
	}
}

// TestDecodedSize pins the micro-op's size. A sweep keeps every point's
// predecoded program live, so eight more bytes here put the cold_dse
// benchmark's live heap 5% up (EXPERIMENTS.md "PR 24"): growing Decoded is a
// measured decision, not a side effect.
func TestDecodedSize(t *testing.T) {
	if got := unsafe.Sizeof(Decoded{}); got != 60 {
		t.Errorf("unsafe.Sizeof(Decoded{}) = %d, want 60", got)
	}
}
