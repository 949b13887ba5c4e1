package sim

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
	"cimflow/internal/tensor"
)

// laneCase is one row of programs(), the table of hand-written programs. A
// row may read a lane's 64 input bytes from global[0:64] and lane-uniform
// data from global[128:], and leaves what it computes in
// global[256:256+outSize], which must read want when the row gives it. No row
// loads lane-varying data into a register, so control flow stays
// lane-uniform and no lane may diverge.
type laneCase struct {
	name    string
	progs   []Program
	uniform []byte // staged at global[128:] in every lane
	outSize int
	want    []byte // the output every lane must hold, when the row says
	key     string // the golden row, "lane/"+name when empty
}

// golden returns the row's key in the golden table.
func (lc *laneCase) golden() string {
	if lc.key != "" {
		return lc.key
	}
	return "lane/" + lc.name
}

const (
	laneIn       = 0   // global offset of a lane's input
	laneUniform  = 128 // global offset of lane-uniform data
	laneOut      = 256 // global offset of a lane's result
	laneMemBytes = 768 // global bytes the cases need
)

func testConfig() arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 2, 2
	return cfg
}

// asm assembles src; a table row with a typo fails every test that builds it.
func asm(src string) []isa.Instruction {
	prog, err := isa.Assemble(src)
	if err != nil {
		panic(err)
	}
	return prog
}

// load installs a core's program the way every caller must: LoadProgram is
// the only path from an instruction stream to a core.
func load(t *testing.T, ch *Chip, core int, code []isa.Instruction) {
	t.Helper()
	if err := ch.LoadProgram(Program{Core: core, Code: code}); err != nil {
		t.Fatal(err)
	}
}

// seq concatenates instruction fragments (isa.LI returns one) into a stream.
func seq(parts ...[]isa.Instruction) []isa.Instruction {
	var out []isa.Instruction
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// one wraps single instructions as a fragment for seq.
func one(ins ...isa.Instruction) []isa.Instruction { return ins }

// copyIn is global[from:from+n] -> local[to:], copyOut the reverse; both
// clobber G1-G3.
func copyIn(to, from, n int32) []isa.Instruction {
	return seq(isa.LI(1, to), isa.LI(2, GlobalBase+from), isa.LI(3, n), one(isa.MemCpy(1, 2, 3, 0)))
}

func copyOut(to, from, n int32) []isa.Instruction {
	return seq(isa.LI(1, GlobalBase+to), isa.LI(2, from), isa.LI(3, n), one(isa.MemCpy(1, 2, 3, 0)))
}

// setSReg is S[sreg] = v through G1.
func setSReg(sreg int, v int32) []isa.Instruction {
	return seq(isa.LI(1, v), one(isa.MTS(sreg, 1)))
}

// laneWeights is 16x8 lane-uniform weights, small enough that 16 rows never
// saturate the requantized output.
func laneWeights() []byte {
	weights := make([]byte, 16*8)
	for i := range weights {
		weights[i] = byte(int8(i%7 - 3))
	}
	return weights
}

// loadWeights is CIM_LOAD of rows x 8 weights from local[from:] into macro
// group 0; mvm multiplies local[in:in+rows] (gathered per the segment
// registers) and writes channel results to local[out:].
func loadWeights(from, rows int32) []isa.Instruction {
	return seq(isa.LI(1, from), isa.LI(2, rows), isa.LI(3, 8), one(isa.CimLoad(0, 1, 2, 3)))
}

func mvm(in, rows, out int32, flags uint16) []isa.Instruction {
	return seq(isa.LI(1, in), isa.LI(2, rows), isa.LI(3, out), one(isa.CimMVM(1, 2, 3, isa.MVMFlags(0, flags))))
}

// vec is VEC_<fn> of n elements from local[a:] (and local[rt:], or the
// scalar rt) to local[d:].
func vec(fn uint8, d, a, rt, n int32) []isa.Instruction {
	return seq(isa.LI(4, a), isa.LI(5, rt), isa.LI(6, d), isa.LI(7, n), one(isa.Vec(fn, 6, 4, 5, 7)))
}

// spinHalt ends a hand-written program. HALT does not wait for operations in
// flight, and Stats.Check holds a unit's busy time to the cycle count: spin
// past the last copy-out's occupancy, as a program that wants its cycle count
// to cover its transfers must.
func spinHalt() []isa.Instruction {
	return seq(isa.LI(10, 100), one(
		isa.ALUI(isa.FnAdd, 10, 10, -1),
		isa.Branch(isa.OpBNE, 10, 0, -2),
		isa.Halt(),
	))
}

// quant8 sets up a requantized 8-channel writeback: multiplier 1, shift 5.
func quant8() []isa.Instruction {
	return seq(setSReg(isa.SRegQuantMul, 1), setSReg(isa.SRegQuantShift, 5), setSReg(isa.SRegOutChans, 8))
}

// example is a one-core row written in assembly: data, if any, is copied to
// local[0:] first (from the lane-uniform global bytes), and afterwards the
// len(want) bytes at local[at:] go to the output, which must read want.
func example(name string, data []byte, at int32, want []byte, code ...[]isa.Instruction) laneCase {
	var in, out []isa.Instruction
	if len(data) > 0 {
		in = copyIn(0, laneUniform, int32(len(data)))
	}
	if len(want) > 0 {
		out = copyOut(laneOut, at, int32(len(want)))
	}
	lc := lane(name, data, len(want), in, seq(code...), out)
	lc.want = want
	return lc
}

// lane is a one-core row: code, then spinHalt.
func lane(name string, uniform []byte, outSize int, code ...[]isa.Instruction) laneCase {
	return laneCase{name: name, uniform: uniform, outSize: outSize, progs: []Program{{Core: 0, Code: seq(seq(code...), spinHalt())}}}
}

// i8 and le32 are the bytes of INT8 and little-endian INT32 values; slots
// places its parts 16 bytes apart.
func i8(vs ...int8) []byte {
	out := make([]byte, len(vs))
	for i, v := range vs {
		out[i] = byte(v)
	}
	return out
}

func le32(vs ...int32) []byte {
	out := make([]byte, 4*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func slots(parts ...[]byte) []byte {
	out := make([]byte, 16*(len(parts)-1)+len(parts[len(parts)-1]))
	for i, p := range parts {
		copy(out[16*i:], p)
	}
	return out
}

// programs is the table of hand-written programs. The first rows run on
// lane-varying input; together they drive every handler with a per-lane data
// effect, both MAC kernels and the strided message payload. The rest are
// examples of one instruction family each, with the bytes they must produce.
func programs() []laneCase {
	weights, halt, quant := laneWeights(), spinHalt(), quant8()
	bits := func(f float32) int32 { return int32(math.Float32bits(f)) }
	acts, inS, outS := []int8{-100, -1, 0, 1, 100}, float32(0.05), float32(1.0/64)
	var sig, silu []int8
	for _, v := range acts {
		sig, silu = append(sig, tensor.Sigmoid8(v, inS, outS)), append(silu, tensor.SiLU8(v, inS, outS))
	}
	evens := make([]byte, 128)
	for i := range evens {
		evens[i] = byte(2 * i)
	}
	act := func(fn uint8, in, out float32, at int32) []isa.Instruction {
		return seq(setSReg(isa.SRegActInScale, bits(in)), setSReg(isa.SRegActOutScale, bits(out)), vec(fn, at, 0, 0, 128))
	}
	toCore3 := "SC_ADDI G1, G0, 0\nSC_ADDI G2, G0, 256\nSC_ADDI G3, G0, 3\n"
	ring := func(size, tag int32, end ...isa.Instruction) []Program { // to the successor, from the predecessor
		var progs []Program
		for core := int32(0); core < 4; core++ {
			progs = append(progs, Program{Core: int(core), Code: seq(isa.LI(1, 0), isa.LI(2, size), isa.LI(3, (core+1)%4),
				isa.LI(4, (core+3)%4), one(isa.Send(1, 2, 3, tag), isa.Recv(1, 2, 4, tag)), end)})
		}
		return progs
	}

	return []laneCase{
		// 32 input bytes copied in, doubled with a SIMD add, copied out.
		lane("memcpy+vec", nil, 32, copyIn(0, laneIn, 32),
			isa.LI(1, 0), isa.LI(3, 32), isa.LI(5, 64), one(isa.Vec(isa.VFnAdd8, 5, 1, 1, 3)), copyOut(laneOut, 64, 32)),
		{
			// Core 0 forwards its lane-varying input to core 1, which
			// doubles it and writes it out: the strided message payload.
			name: "send/recv", outSize: 32,
			progs: []Program{
				{Core: 0, Code: seq(copyIn(0, laneIn, 32), isa.LI(1, 0), isa.LI(2, 32), isa.LI(3, 1), one(isa.Send(1, 2, 3, 7)), halt)},
				{Core: 1, Code: seq(isa.LI(1, 64), isa.LI(2, 32), isa.LI(3, 0), one(isa.Recv(1, 2, 3, 7)),
					isa.LI(5, 128), one(isa.Vec(isa.VFnAdd8, 5, 1, 1, 2)), copyOut(laneOut, 128, 32), halt)},
			},
		},
		// Every lane loads the same weights.
		lane("cim_load uniform weights", weights, 8, copyIn(0, laneIn, 16), copyIn(512, laneUniform, 128), quant,
			loadWeights(512, 16), mvm(0, 16, 1024, isa.MVMFlagWriteback|isa.MVMFlagRelu), copyOut(laneOut, 1024, 8)),
		// Each lane loads 4x8 weights out of its own input bytes, so every
		// lane must multiply against its own copy of the group.
		lane("cim_load lane-varying weights", nil, 32, copyIn(0, laneIn, 64), setSReg(isa.SRegOutChans, 8),
			loadWeights(0, 4), mvm(32, 4, 1024, isa.MVMFlagWriteRaw), copyOut(laneOut, 1024, 32)),
		// A two-segment gather (local[0:8] and local[24:32]) written back
		// raw, then accumulated onto itself and written back requantized.
		lane("gather mvm raw+requant", weights, 40, copyIn(0, laneIn, 64), copyIn(512, laneUniform, 128), quant,
			loadWeights(512, 16), setSReg(isa.SRegSegCount, 2), setSReg(isa.SRegSegStride, 24),
			mvm(0, 16, 1024, isa.MVMFlagWriteRaw), mvm(0, 16, 1056, isa.MVMFlagAccumulate|isa.MVMFlagWriteback),
			copyOut(laneOut, 1024, 40)),
		// 15 rows, then 9 rows from an odd address accumulated on top: the
		// nonzero count is odd in some lanes and even in others, so the
		// row-pair kernel's unpaired last row is lane-varying.
		lane("mvm odd nonzero count", weights, 40, copyIn(0, laneIn, 16), copyIn(512, laneUniform, 128), quant,
			loadWeights(512, 16), mvm(0, 15, 1024, isa.MVMFlagWriteRaw),
			mvm(3, 9, 1056, isa.MVMFlagAccumulate|isa.MVMFlagWriteback), copyOut(laneOut, 1024, 40)),
		// 27 rows — less than one 32-row chunk of the kernel's scan, so the
		// mask is all tail pieces (16 + 8 + 2 + 1) — gathered from three
		// 9-byte segments 16 bytes apart.
		lane("short segmented mvm", weights, 40, copyIn(0, laneIn, 64), copyIn(512, laneUniform, 128), quant,
			loadWeights(512, 16), setSReg(isa.SRegLoadRow, 16), loadWeights(552, 11),
			setSReg(isa.SRegSegCount, 3), setSReg(isa.SRegSegStride, 16),
			mvm(0, 27, 1024, isa.MVMFlagWriteRaw), mvm(0, 27, 1056, isa.MVMFlagAccumulate|isa.MVMFlagWriteback|isa.MVMFlagRelu),
			copyOut(laneOut, 1024, 40)),
		// 5 of the group's channels written back raw, requantized and
		// requantized with ReLU, each into a window pre-filled with 0x55 so
		// a store past the fifth channel shows.
		lane("mvm writeback 5 channels", weights, 48, copyIn(0, laneIn, 16), copyIn(512, laneUniform, 128), quant,
			setSReg(isa.SRegOutChans, 5), loadWeights(512, 16), isa.LI(1, 1024), isa.LI(2, 48), one(isa.VFill(1, 2, 0x55)),
			mvm(0, 16, 1024, isa.MVMFlagWriteRaw), mvm(0, 16, 1056, isa.MVMFlagWriteback),
			mvm(0, 16, 1064, isa.MVMFlagWriteback|isa.MVMFlagRelu), copyOut(laneOut, 1024, 48)),
		// Every funct with a whole-slice kernel, at unit stride on
		// lane-varying bytes: a multiply-accumulate chain requantized and
		// clamped in place, then one result window per remaining funct.
		lane("bulk vector kernels", nil, 512, copyIn(0, laneIn, 64), quant,
			setSReg(isa.SRegQMulA, 3), setSReg(isa.SRegQMulB, -5),
			setSReg(isa.SRegActInScale, bits(0.0625)), setSReg(isa.SRegActOutScale, bits(0.03125)),
			vec(isa.VFnMac8, 256, 0, 0, 61), // local[256:512] starts zeroed
			vec(isa.VFnAcc8, 256, 0, 0, 61),
			vec(isa.VFnQnt, 512, 256, 0, 61),
			vec(isa.VFnRelu68, 512, 512, 23, 61),
			vec(isa.VFnSilu8, 576, 0, 0, 61),
			vec(isa.VFnMax8, 640, 0, 512, 61),
			vec(isa.VFnQAdd8, 704, 0, 512, 61),
			vec(isa.VFnQMul8, 768, 0, 512, 61),
			vec(isa.VFnMov8, 832, 0, 0, 61),
			vec(isa.VFnRelu8, 896, 0, 0, 61),
			vec(isa.VFnSigm8, 960, 0, 0, 61),
			copyOut(laneOut, 512, 512)),
		// A constant fill in the middle of lane-varying bytes.
		lane("vfill", nil, 32, copyIn(0, laneIn, 32), isa.LI(1, 8), isa.LI(2, 16), one(isa.VFill(1, 2, -3)), copyOut(laneOut, 0, 32)),
		// A lane-uniform word stored to global and local memory and loaded
		// back into registers: every lane holds the same value, so the loads
		// must not flag divergence. The reloaded values are stored next to
		// 16 lane-varying bytes.
		lane("scalar store+load", nil, 32, copyIn(0, laneIn, 16), copyOut(laneOut, 0, 16),
			isa.LI(4, GlobalBase+laneOut), isa.LI(5, 0x01234567), isa.LI(6, 200), one(
				isa.Store(5, 4, 100), // global scratch
				isa.Load(7, 4, 100),
				isa.Store(7, 4, 16),
				isa.Store(5, 6, 0), // local scratch
				isa.Load(8, 6, 0),
				isa.Store(8, 4, 20),
				isa.Instruction{Op: isa.OpScSB, RT: 7, RS: 4, Imm: 24},
				isa.Instruction{Op: isa.OpScLB, RT: 9, RS: 4, Imm: 24},
				isa.Store(9, 4, 28),
			)),

		example("scalar loop", nil, 100, le32(55), asm(`
			SC_ADDI G1, G0, 10
		loop:	SC_ADD G5, G5, G1
			SC_ADDI G1, G1, -1
			BNE G1, G0, %loop
			SC_ST G5, G0, 100`)),
		example("scalar alu", nil, 200, le32(14, 2, 0, 1, 7, 100, 16, 25, -25), asm(`
			SC_ADDI G1, G0, 100
			SC_ADDI G2, G0, 7
			SC_DIV G3, G1, G2
			SC_REM G4, G1, G2
			SC_MUL G5, G3, G4
			SC_SUB G6, G5, G2
			SC_AND G7, G6, G2
			SC_OR G8, G7, G4
			SC_XOR G9, G8, G2
			SC_SLT G10, G4, G2
			SC_MIN G11, G1, G2
			SC_MAX G12, G1, G2
			SC_SLLI G13, G10, 4
			SC_SRAI G14, G1, 2
			SC_SUB G15, G0, G1
			SC_SRAI G15, G15, 2
			SC_ST G3, G0, 200
			SC_ST G4, G0, 204
			SC_ST G9, G0, 208
			SC_ST G10, G0, 212
			SC_ST G11, G0, 216
			SC_ST G12, G0, 220
			SC_ST G13, G0, 224
			SC_ST G14, G0, 228
			SC_ST G15, G0, 232`)),
		example("g0 hardwired", nil, 100, le32(5), asm("SC_ADDI G0, G0, 42\nSC_ADDI G1, G0, 5\nSC_ST G1, G0, 100")),
		// The copy-in and copy-out are MEM_CPY from and to global memory.
		example("global memory access", []byte{11, 22, 33, 44}, 0, []byte{12, 22, 33, 44},
			asm("SC_LB G4, G0, 0\nSC_ADDI G4, G4, 1\nSC_SB G4, G0, 0")),
		example("vector add max relu maxs", slots(i8(-2, -1, 0, 1, 2, 3, 4, 127), i8(1, 1, 1, 1, -1, -1, -1, 1)), 32,
			slots(i8(-1, 0, 1, 2, 1, 2, 3, 127), i8(1, 1, 1, 1, 2, 3, 4, 127), i8(0, 0, 0, 1, 2, 3, 4, 127), i8(3, 3, 3, 3, 3, 3, 4, 127)), asm(`
			SC_ADDI G2, G0, 16
			SC_ADDI G4, G0, 8
			SC_ADDI G3, G0, 32
			VEC_ADD G3, G0, G2, G4
			SC_ADDI G3, G0, 48
			VEC_MAX G3, G0, G2, G4
			SC_ADDI G3, G0, 64
			VEC_RELU G3, G0, G0, G4
			SC_ADDI G5, G0, 3
			SC_ADDI G3, G0, 80
			VEC_MAXS G3, G0, G5, G4`)),
		// 515>>2 = 128 saturates.
		example("vector quantize and reduce", le32(100, -100, 8, 515), 64, slots(i8(25, -25, 2, 127), le32(129)), asm(`
			SC_ADDI G1, G0, 1
			SC_MTS 1, G1
			SC_ADDI G1, G0, 2
			SC_MTS 2, G1
			SC_ADDI G2, G0, 64
			SC_ADDI G3, G0, 4
			VEC_QNT G2, G0, G0, G3
			SC_ADDI G4, G0, 80
			VEC_RSUM8 G4, G2, G0, G3`)),
		example("vector stride", []byte{1, 2, 3, 4, 5, 6, 7, 8}, 32, []byte{1, 3, 5, 7}, asm(`
			SC_ADDI G1, G0, 2
			SC_MTS 6, G1
			SC_ADDI G2, G0, 32
			SC_ADDI G3, G0, 4
			VEC_MOV G2, G0, G0, G3`)),
		// 100*100 saturates.
		example("vector mul min", slots(i8(3, -3, 100, 0), i8(4, 4, 100, -7)), 32, slots(i8(12, -12, 127, 0), i8(3, -3, 100, -7)), asm(`
			SC_ADDI G2, G0, 16
			SC_ADDI G4, G0, 4
			SC_ADDI G3, G0, 32
			VEC_MUL G3, G0, G2, G4
			SC_ADDI G3, G0, 48
			VEC_MIN G3, G0, G2, G4`)),
		// (3a + 2b) >> 2, saturated.
		example("vector qadd", slots(i8(10, -10, 127, -128), i8(6, 6, 127, -128)), 32, i8(10, -5, 127, -128),
			setSReg(isa.SRegQMulA, 3), setSReg(isa.SRegQMulB, 2), setSReg(isa.SRegQuantShift, 2), vec(isa.VFnQAdd8, 32, 0, 16, 4)),
		example("vector qmul", slots(i8(10, -10, 127), i8(12, 12, 127)), 32,
			i8(tensor.Requant(120, 5, 4), tensor.Requant(-120, 5, 4), tensor.Requant(127*127, 5, 4)),
			setSReg(isa.SRegQuantMul, 5), setSReg(isa.SRegQuantShift, 4), vec(isa.VFnQMul8, 32, 0, 16, 3)),
		// d += a*b, then d += a, on accumulators that start at 100.
		example("vector mac acc", slots(i8(2, 3), i8(5, -5), le32(100, 100)), 32, le32(112, 88),
			vec(isa.VFnMac8, 32, 0, 16, 2), vec(isa.VFnAcc8, 32, 0, 0, 2)),
		example("vector add32 rsum32", slots(le32(1000, -2000, 300000), nil, le32(2000, -4000, 600000)), 64,
			slots(le32(3000, -6000, 900000), nil, le32(897000)),
			vec(isa.VFnAdd32, 64, 0, 32, 3), vec(isa.VFnRSum32, 96, 64, 0, 3)),
		example("vector rmax", i8(-10, 40, -128, 39), 32, i8(40, -128),
			vec(isa.VFnRMax8, 32, 0, 0, 4), vec(isa.VFnRMax8, 33, 2, 0, 1)),
		example("vector sigmoid silu", i8(acts...), 32, slots(i8(sig...), i8(silu...)),
			setSReg(isa.SRegActInScale, bits(inS)), setSReg(isa.SRegActOutScale, bits(outS)),
			vec(isa.VFnSigm8, 32, 0, 0, 5), vec(isa.VFnSilu8, 48, 0, 0, 5)),
		// Weights W[r] = (r+1, 1) times input (1 2 3 4): 30 and 10.
		example("mvm single group", slots(i8(1, 1, 2, 1, 3, 1, 4, 1), i8(1, 2, 3, 4)), 128, i8(30, 10), asm(`
			SC_ADDI G1, G0, 1
			SC_MTS 1, G1
			SC_ADDI G2, G0, 2
			SC_MTS 16, G2
			SC_ADDI G5, G0, 4
			CIM_LOAD G0, G0, G5, G2
			SC_ADDI G6, G0, 16
			SC_ADDI G7, G0, 128
			CIM_MVM G6, G5, G7, 0x2`)),
		// Two 512-row tiles of ones on groups 0 and 1: 1024 >> 6 = 16.
		example("mvm accumulates across groups", nil, 2048, i8(16), asm(fmt.Sprintf(`
			SC_ADDI G1, G0, 1
			SC_MTS 1, G1
			SC_MTS 16, G1
			SC_ADDI G2, G0, 6
			SC_MTS 2, G2
			SC_ADDI G3, G0, 1024
			SC_ADDI G4, G0, 64
			VFILL G4, G3, 1
			SC_ADDI G5, G0, 512
			CIM_LOAD G0, G4, G5, G1
			CIM_LOAD G1, G4, G5, G1
			SC_ADDI G7, G0, 2048
			CIM_MVM G4, G5, G7, 0x0
			SC_ADDI G6, G4, 512
			CIM_MVM G6, G5, G7, %#x`, isa.MVMFlags(1, isa.MVMFlagAccumulate|isa.MVMFlagWriteback)))),
		// Two segments of 3 bytes 100 apart, 1 2 3 and 10 10 10, times ones.
		example("mvm gathers segments", i8(1, 2, 3), 200, i8(36), asm(`
			SC_ADDI G1, G0, 1
			SC_MTS 1, G1
			SC_MTS 16, G1
			SC_ADDI G2, G0, 2
			SC_MTS 4, G2
			SC_ADDI G2, G0, 100
			SC_MTS 5, G2
			SC_ADDI G3, G0, 3
			VFILL G2, G3, 10
			SC_ADDI G4, G0, 200
			SC_ADDI G5, G0, 6
			VFILL G4, G5, 1
			CIM_LOAD G0, G4, G5, G1
			CIM_MVM G0, G5, G4, 0x2`)),
		example("mvm raw writeback", slots(i8(100, 1, 100, 1, 100, 1, 100, 1), i8(100, 100, 100, 100)), 64, le32(40000, 400), asm(`
			SC_ADDI G2, G0, 2
			SC_MTS 16, G2
			SC_ADDI G5, G0, 4
			CIM_LOAD G0, G0, G5, G2
			SC_ADDI G6, G0, 16
			SC_ADDI G7, G0, 64
			CIM_MVM G6, G5, G7, 0x4`)),
		// A 1x1 tile at row 5, channel 3 of group 0.
		example("cim_load offsets", []byte{7}, 0, nil, asm(`
			SC_ADDI G1, G0, 5
			SC_MTS 9, G1
			SC_ADDI G1, G0, 3
			SC_MTS 10, G1
			SC_ADDI G3, G0, 1
			CIM_LOAD G0, G0, G3, G3`)),
		// A scalar load of a region being filled sees the fill, and stalls.
		example("memory hazard", nil, 2000, []byte{9}, asm(`
			SC_ADDI G1, G0, 1000
			SC_ADDI G2, G0, 512
			VFILL G2, G1, 9
			SC_LB G4, G2, 100
			SC_SB G4, G0, 2000`)),
		// A long fill and an independent scalar loop overlap; a load of the
		// filled region first serializes them.
		example("vfill overlaps a loop", nil, 0, nil, asm(`
			SC_ADDI G1, G0, 400
			SC_ADDI G2, G0, 4096
			VFILL G2, G1, 0
			SC_ADDI G5, G0, 50
		loop:	SC_ADDI G5, G5, -1
			BNE G5, G0, %loop`)),
		example("load waits for vfill", nil, 0, nil, asm(`
			SC_ADDI G1, G0, 400
			SC_ADDI G2, G0, 4096
			VFILL G2, G1, 0
			SC_LB G4, G2, 0
			SC_ADDI G5, G0, 50
		loop:	SC_ADDI G5, G5, -1
			BNE G5, G0, %loop`)),
		{
			// SILU at scales 0, SIGM at scales 2, SILU at scales 1 and SILU
			// at scales 0 again over 128 input bytes, every other INT8 value:
			// one activation table slot, refilled at every change.
			name: "activations alternate", uniform: evens, outSize: 512,
			progs: []Program{{Core: 0, Code: seq(copyIn(0, laneUniform, 128),
				act(isa.VFnSilu8, 0.0625, 0.03125, 1024), act(isa.VFnSigm8, 0.1, 0.05, 1152),
				act(isa.VFnSilu8, 0.0625, 0.05, 1280), act(isa.VFnSilu8, 0.0625, 0.03125, 1408),
				copyOut(laneOut, 1024, 512), halt)}},
		},
		{
			// The receiver waits before the sender, 100 iterations late, sends.
			name: "recv before send", uniform: []byte{77}, outSize: 4, want: []byte{77, 0, 0, 0},
			progs: []Program{
				{Core: 0, Code: seq(copyIn(0, laneUniform, 1), asm(`
					SC_ADDI G5, G0, 100
				delay:	SC_ADDI G5, G5, -1
					BNE G5, G0, %delay
					SC_ADDI G2, G0, 4
					SC_ADDI G3, G0, 1
					SEND G0, G2, G3, 9`), halt)},
				{Core: 1, Code: seq(asm("SC_ADDI G2, G0, 4\nRECV G0, G2, G0, 9"), copyOut(laneOut, 0, 4), halt)},
			},
		},
		{
			// Core 0 reaches the barrier 500 iterations after the others.
			name: "barrier waits for the last core",
			progs: []Program{
				{Core: 0, Code: seq(asm("SC_ADDI G5, G0, 500\nspin: SC_ADDI G5, G5, -1\nBNE G5, G0, %spin\nBARRIER 1\nSC_SB G0, G0, 0"), halt)},
				{Core: 1, Code: seq(asm("BARRIER 1\nSC_SB G0, G0, 0"), halt)},
				{Core: 2, Code: seq(asm("BARRIER 1\nSC_SB G0, G0, 0"), halt)},
				{Core: 3, Code: seq(asm("BARRIER 1\nSC_SB G0, G0, 0"), halt)},
			},
		},
		// The schedule's edge cases, on the rows of the golden table they
		// had as tests of their own.
		{name: "messaging ring", key: "schedule/ring", progs: ring(64, 5, isa.Barrier(1), isa.Halt())},
		{name: "pooled ring", key: "schedule/pooled rerun", progs: ring(16, 9, isa.Halt())},
		{
			// Core 0 computes for a while and then sends to core 3; core 1
			// sends to core 3 early. XY routing puts both messages on link
			// 1->3, which core 1's must reserve first. Fusion runs core 0's
			// straight-line stretch as one step, which is exact only because
			// the run ends before its SEND: a SEND inside the run would
			// reserve the link at core 0's later time ahead of core 1's
			// earlier message.
			name: "fused run stops before send", key: "schedule/fused run stops before send",
			progs: []Program{
				{Core: 0, Code: asm(toCore3 + strings.Repeat("SC_ADDI G5, G5, 1\n", 40) + "SEND G1, G2, G3, 1\nHALT")},
				{Core: 1, Code: asm(toCore3 + "SEND G1, G2, G3, 2\nHALT")},
				{Core: 3, Code: asm("SC_ADDI G1, G0, 0\nSC_ADDI G2, G0, 256\nSC_ADDI G3, G0, 1\nSC_ADDI G4, G0, 0\nRECV G1, G2, G3, 2\nRECV G1, G2, G4, 1\nHALT")},
			},
		},
		{
			// A RECV that blocks as the first instruction after a released
			// BARRIER parks the core as a receiver, woken by the later SEND,
			// not as a second barrier arrival: the handlers report barrier
			// arrivals as a step status of their own.
			name: "recv immediately after barrier", key: "schedule/recv immediately after barrier",
			progs: []Program{
				{Core: 0, Code: asm("SC_ADDI G1, G0, 0\nSC_ADDI G2, G0, 16\nSC_ADDI G3, G0, 1\nBARRIER 1\nRECV G1, G2, G3, 5\nHALT")},
				{Core: 1, Code: asm("SC_ADDI G1, G0, 64\nSC_ADDI G2, G0, 16\nSC_ADDI G3, G0, 0\nBARRIER 1\nNOP\nNOP\nNOP\nNOP\nSEND G1, G2, G3, 5\nHALT")},
			},
		},
		{
			// Core 1 runs one instruction more than core 0; cores 2 and 3 none.
			name: "stats per core",
			progs: []Program{
				{Core: 0, Code: seq(asm("SC_ADDI G1, G0, 1\nSC_ST G1, G0, 0"), halt)},
				{Core: 1, Code: seq(asm("SC_ADDI G1, G0, 1\nSC_ADDI G2, G0, 2\nSC_ST G2, G0, 0"), halt)},
			},
		},
	}
}

// row returns the row of programs() called name.
func row(t *testing.T, name string) laneCase {
	t.Helper()
	ps := programs()
	i := slices.IndexFunc(ps, func(lc laneCase) bool { return lc.name == name })
	if i < 0 {
		t.Fatalf("no program %q", name)
	}
	return ps[i]
}

// laneInput is lane l's 64 input bytes: lane-varying values with one run of
// eight zeros private to the lane and one shared by all lanes, so the MAC
// kernel's zero-run skipping sees both.
func laneInput(l int) []byte {
	in := make([]byte, 64)
	for i := range in {
		in[i] = byte((17*l + 3*i + 1) % 251)
	}
	clear(in[8*l : 8*l+8])
	clear(in[40:48])
	return in
}

// laneInputs is the first n lane inputs.
func laneInputs(n int) [][]byte {
	inputs := make([][]byte, n)
	for l := range inputs {
		inputs[l] = laneInput(l)
	}
	return inputs
}

// stage builds a chip for a lane case, loads its programs and the uniform
// data, and returns it ready for per-lane inputs.
func (lc *laneCase) stage(t *testing.T, cfg *arch.Config, opts ...ChipOption) *Chip {
	t.Helper()
	ch, err := NewChip(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ch.EnsureGlobal(laneMemBytes)
	for _, p := range lc.progs {
		if err := ch.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ch.InitGlobal(GlobalSegment{Addr: laneUniform, Data: lc.uniform}); err != nil {
		t.Fatal(err)
	}
	return ch
}

// runAlone runs one input through a one-lane chip built with opts, holds
// what it computed to the reference executor and the row's output, and the
// report to Stats.Check, and returns its output bytes and report.
func (lc *laneCase) runAlone(t *testing.T, cfg *arch.Config, in []byte, opts ...ChipOption) ([]byte, *Stats) {
	t.Helper()
	ch := lc.stage(t, cfg, opts...)
	if err := ch.InitGlobal(GlobalSegment{Addr: laneIn, Data: in}); err != nil {
		t.Fatal(err)
	}
	staged := slices.Clone(readsAs(ch.global[0], laneMemBytes))
	stats, err := ch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	matchRef(t, ch, 0, nil, lc.progs, staged)
	if err := stats.Check(); err != nil {
		t.Errorf("inconsistent report: %v", err)
	}
	out, err := ch.ReadGlobal(laneOut, lc.outSize)
	if err != nil {
		t.Fatal(err)
	}
	if lc.want != nil && !bytes.Equal(out, lc.want) {
		t.Errorf("output %v, want %v", out, lc.want)
	}
	return out, stats
}

// runLanes stages inputs one per lane on ch (already Reset when reused),
// runs it, and checks every lane's output against want and the report
// against wantStats, which is lane-count-agnostic apart from Stats.Lanes.
func (lc *laneCase) runLanes(t *testing.T, ch *Chip, inputs, want [][]byte, wantStats *Stats) {
	t.Helper()
	if err := ch.SetLanes(len(inputs)); err != nil {
		t.Fatal(err)
	}
	for l, in := range inputs {
		if err := ch.InitGlobalLane(l, GlobalSegment{Addr: laneIn, Data: in}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := ch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := ch.DivergedLanes(); len(got) != 0 || stats.DivergedLanes != 0 {
		t.Fatalf("diverged lanes %v (stats %d), want none", got, stats.DivergedLanes)
	}
	if stats.Lanes != len(inputs) {
		t.Errorf("stats.Lanes = %d, want %d", stats.Lanes, len(inputs))
	}
	if err := stats.Check(); err != nil {
		t.Errorf("inconsistent report: %v", err)
	}
	timing := *stats
	timing.Lanes = wantStats.Lanes
	if !reflect.DeepEqual(&timing, wantStats) {
		t.Errorf("lane run report differs from a one-lane run\nlanes: %+v\nalone: %+v", &timing, wantStats)
	}
	for l := range inputs {
		out, err := ch.ReadGlobalLane(l, laneOut, lc.outSize)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want[l]) {
			t.Errorf("lane %d output differs from its one-lane run:\nlane  %v\nalone %v", l, out, want[l])
		}
	}
}

// check runs the row on each input alone (runAlone), the report the golden
// row key and independent of the input, then all inputs as one batch on a
// chip with a spare lane, where every lane must equal its one-lane run byte
// for byte and cycle for cycle (the full report: energy, per-core stats, NoC
// traffic); the chip is then Reset and reruns all inputs but the first in
// reverse, so stale lane state shows. It returns the one-lane outputs.
func (lc *laneCase) check(t *testing.T, key string, cfg *arch.Config, inputs [][]byte) [][]byte {
	t.Helper()
	want := make([][]byte, len(inputs))
	var wantStats *Stats
	for l, in := range inputs {
		out, stats := lc.runAlone(t, cfg, in)
		checkGolden(t, key, stats, nil)
		if l > 0 && !reflect.DeepEqual(stats, wantStats) {
			t.Fatalf("input %d: one-lane timing depends on the data; the case is not lane-uniform", l)
		}
		want[l], wantStats = out, stats
	}
	ch := lc.stage(t, cfg, WithLanes(len(inputs)+1))
	lc.runLanes(t, ch, inputs, want, wantStats)
	ch.Reset()
	if err := ch.CheckPayloadPool(); err != nil {
		t.Fatal(err)
	}
	if len(inputs) > 1 {
		rev := func(b [][]byte) [][]byte { b = slices.Clone(b[1:]); slices.Reverse(b); return b }
		lc.runLanes(t, ch, rev(inputs), rev(want), wantStats)
	}
	return want
}

// TestLaneDataEquivalence checks every program of the table, fused and
// unfused, on three inputs: each run alone matches the reference executor on
// every register and byte, produces the row's output, passes Stats.Check and
// reports the row's golden row; the batches match the runs alone.
func TestLaneDataEquivalence(t *testing.T) {
	cfg := testConfig()
	for _, lc := range programs() {
		for _, m := range decodedModes {
			t.Run(lc.name+"/"+m.name, func(t *testing.T) { lc.in(m).check(t, lc.golden(), &cfg, laneInputs(3)) })
		}
	}
}

// runRows checks the named rows of the table on two inputs, fused and
// unfused, under the names of the tests they replaced.
func runRows(t *testing.T, names ...string) {
	cfg := testConfig()
	for _, m := range decodedModes {
		t.Run(m.name, func(t *testing.T) {
			for _, name := range names {
				lc := row(t, name)
				lc.in(m).check(t, lc.golden(), &cfg, laneInputs(2))
			}
		})
	}
}

func TestScalarLoop(t *testing.T)                      { runRows(t, "scalar loop") }
func TestScalarALUOps(t *testing.T)                    { runRows(t, "scalar alu") }
func TestG0Hardwired(t *testing.T)                     { runRows(t, "g0 hardwired") }
func TestGlobalMemoryAccess(t *testing.T)              { runRows(t, "global memory access", "scalar store+load") }
func TestVectorOps(t *testing.T)                       { runRows(t, "vector add max relu maxs") }
func TestVectorQuantAndReduction(t *testing.T)         { runRows(t, "vector quantize and reduce") }
func TestVectorStrides(t *testing.T)                   { runRows(t, "vector stride") }
func TestVectorMulMinMov(t *testing.T)                 { runRows(t, "vector mul min", "vector stride") }
func TestVectorQAddMatchesTensor(t *testing.T)         { runRows(t, "vector qadd") }
func TestVectorQMulMatchesTensor(t *testing.T)         { runRows(t, "vector qmul") }
func TestVectorMacAndAcc(t *testing.T)                 { runRows(t, "vector mac acc") }
func TestVectorAdd32AndRSum32(t *testing.T)            { runRows(t, "vector add32 rsum32") }
func TestVectorRMax(t *testing.T)                      { runRows(t, "vector rmax") }
func TestVectorSigmoidSiluMatchTensor(t *testing.T)    { runRows(t, "vector sigmoid silu") }
func TestCimMVMSingleGroup(t *testing.T)               { runRows(t, "mvm single group") }
func TestCimMVMAccumulateAcrossGroups(t *testing.T)    { runRows(t, "mvm accumulates across groups") }
func TestCimMVMGatherSegments(t *testing.T)            { runRows(t, "mvm gathers segments") }
func TestCimMVMRawWriteback(t *testing.T)              { runRows(t, "mvm raw writeback") }
func TestCimLoadOffsets(t *testing.T)                  { runRows(t, "cim_load offsets") }
func TestSendRecv(t *testing.T)                        { runRows(t, "send/recv") }
func TestRecvBeforeSend(t *testing.T)                  { runRows(t, "recv before send") }
func TestBarrierSynchronizes(t *testing.T)             { runRows(t, "barrier waits for the last core") }
func TestScheduleMessagingRing(t *testing.T)           { runRows(t, "messaging ring") }
func TestSchedulePooledRerun(t *testing.T)             { runRows(t, "pooled ring") }
func TestScheduleFusedRunStopsBeforeSend(t *testing.T) { runRows(t, "fused run stops before send") }
func TestRecvImmediatelyAfterBarrier(t *testing.T)     { runRows(t, "recv immediately after barrier") }
func TestStatsPerCore(t *testing.T)                    { runRows(t, "stats per core") }
func TestPipelineOverlap(t *testing.T)                 { runRows(t, "vfill overlaps a loop", "load waits for vfill") }
func TestMemoryHazardEnforced(t *testing.T)            { runRows(t, "memory hazard") }
func TestVectorNegativeLengthRejected(t *testing.T)    { runtimeErrors(t, "negative vector length") }
func TestCimLoadBoundsRejected(t *testing.T)           { runtimeErrors(t, "cim_load past the group") }

// TestDeterminism runs the ring twice: each run must be the same golden row.
func TestDeterminism(t *testing.T) { runRows(t, "messaging ring", "messaging ring") }
