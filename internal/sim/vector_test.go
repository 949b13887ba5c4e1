package sim

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"cimflow/internal/isa"
	"cimflow/internal/tensor"
)

// vecCase runs one vector instruction over prepared memory and returns the
// core for inspection.
func vecCase(t *testing.T, setup func(c *core), fn uint8, rdDst, rsA, rtB, reLen uint8, pre []isa.Instruction) *Chip {
	t.Helper()
	cfg := testConfig()
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := ch.cores[0]
	setup(c)
	prog := append([]isa.Instruction{}, pre...)
	prog = append(prog, isa.Vec(fn, rdDst, rsA, rtB, reLen), isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return ch
}

func TestVectorMulMinMov(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	a := []int8{3, -3, 100, 0}
	b := []int8{4, 4, 100, -7}
	for i := range a {
		c.mem()[i] = byte(a[i])
		c.mem()[16+i] = byte(b[i])
	}
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(2, 16)...)
	prog = append(prog, isa.LI(3, 32)...)
	prog = append(prog, isa.LI(4, 4)...)
	prog = append(prog,
		isa.Vec(isa.VFnMul8, 3, 1, 2, 4))
	prog = append(prog, isa.LI(3, 48)...)
	prog = append(prog, isa.Vec(isa.VFnMin8, 3, 1, 2, 4))
	prog = append(prog, isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mul, _ := ch.ReadLocal(0, 32, 4)
	for i, want := range []int8{12, -12, 127, 0} { // 100*100 saturates
		if int8(mul[i]) != want {
			t.Errorf("mul[%d] = %d, want %d", i, int8(mul[i]), want)
		}
	}
	min, _ := ch.ReadLocal(0, 48, 4)
	for i, want := range []int8{3, -3, 100, -7} {
		if int8(min[i]) != want {
			t.Errorf("min[%d] = %d, want %d", i, int8(min[i]), want)
		}
	}
}

func TestVectorQAddMatchesTensor(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	a := []int8{10, -10, 127, -128}
	b := []int8{6, 6, 127, -128}
	for i := range a {
		c.mem()[i] = byte(a[i])
		c.mem()[16+i] = byte(b[i])
	}
	c.sregs[isa.SRegQMulA] = 3
	c.sregs[isa.SRegQMulB] = 2
	c.sregs[isa.SRegQuantShift] = 2
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(2, 16)...)
	prog = append(prog, isa.LI(3, 32)...)
	prog = append(prog, isa.LI(4, 4)...)
	prog = append(prog, isa.Vec(isa.VFnQAdd8, 3, 1, 2, 4), isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, _ := ch.ReadLocal(0, 32, 4)
	for i := range a {
		want := tensor.Sat8((int32(a[i])*3 + int32(b[i])*2) >> 2)
		if int8(out[i]) != want {
			t.Errorf("qadd[%d] = %d, want %d", i, int8(out[i]), want)
		}
	}
}

func TestVectorQMulMatchesTensor(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	a := []int8{10, -10, 127}
	b := []int8{12, 12, 127}
	for i := range a {
		c.mem()[i] = byte(a[i])
		c.mem()[16+i] = byte(b[i])
	}
	c.sregs[isa.SRegQuantMul] = 5
	c.sregs[isa.SRegQuantShift] = 4
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(2, 16)...)
	prog = append(prog, isa.LI(3, 32)...)
	prog = append(prog, isa.LI(4, 3)...)
	prog = append(prog, isa.Vec(isa.VFnQMul8, 3, 1, 2, 4), isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, _ := ch.ReadLocal(0, 32, 3)
	for i := range a {
		want := tensor.Requant(int32(a[i])*int32(b[i]), 5, 4)
		if int8(out[i]) != want {
			t.Errorf("qmul[%d] = %d, want %d", i, int8(out[i]), want)
		}
	}
}

func TestVectorMacAndAcc(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	a := []int8{2, 3}
	b := []int8{5, -5}
	for i := range a {
		c.mem()[i] = byte(a[i])
		c.mem()[16+i] = byte(b[i])
	}
	// Destination starts at 100 each.
	binary.LittleEndian.PutUint32(c.mem()[32:], 100)
	binary.LittleEndian.PutUint32(c.mem()[36:], 100)
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(2, 16)...)
	prog = append(prog, isa.LI(3, 32)...)
	prog = append(prog, isa.LI(4, 2)...)
	prog = append(prog,
		isa.Vec(isa.VFnMac8, 3, 1, 2, 4), // d32 += a*b
		isa.Vec(isa.VFnAcc8, 3, 1, 0, 4), // d32 += a
		isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, _ := ch.ReadLocal(0, 32, 8)
	if got := int32(binary.LittleEndian.Uint32(out)); got != 100+10+2 {
		t.Errorf("acc[0] = %d, want 112", got)
	}
	if got := int32(binary.LittleEndian.Uint32(out[4:])); got != 100-15+3 {
		t.Errorf("acc[1] = %d, want 88", got)
	}
}

func TestVectorAdd32AndRSum32(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	for i, v := range []int32{1000, -2000, 300000} {
		binary.LittleEndian.PutUint32(c.mem()[i*4:], uint32(v))
		binary.LittleEndian.PutUint32(c.mem()[32+i*4:], uint32(v*2))
	}
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(2, 32)...)
	prog = append(prog, isa.LI(3, 64)...)
	prog = append(prog, isa.LI(4, 3)...)
	prog = append(prog,
		isa.Vec(isa.VFnAdd32, 3, 1, 2, 4))
	prog = append(prog, isa.LI(5, 96)...)
	prog = append(prog, isa.Vec(isa.VFnRSum32, 5, 3, 0, 4), isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sum, _ := ch.ReadLocal(0, 96, 4)
	if got := int32(binary.LittleEndian.Uint32(sum)); got != 3*(1000-2000+300000) {
		t.Errorf("rsum32 = %d, want %d", got, 3*(1000-2000+300000))
	}
}

func TestVectorRMax(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	for i, v := range []int8{-10, 40, -128, 39} {
		c.mem()[i] = byte(v)
	}
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(3, 32)...)
	prog = append(prog, isa.LI(4, 4)...)
	prog = append(prog, isa.Vec(isa.VFnRMax8, 3, 1, 0, 4), isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	out, _ := ch.ReadLocal(0, 32, 1)
	if int8(out[0]) != 40 {
		t.Errorf("rmax = %d, want 40", int8(out[0]))
	}
}

func TestVectorSigmoidSiluMatchTensor(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	vals := []int8{-100, -1, 0, 1, 100}
	for i, v := range vals {
		c.mem()[i] = byte(v)
	}
	inS, outS := float32(0.05), float32(1.0/64)
	c.sregs[isa.SRegActInScale] = int32(math.Float32bits(inS))
	c.sregs[isa.SRegActOutScale] = int32(math.Float32bits(outS))
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(3, 32)...)
	prog = append(prog, isa.LI(4, int32(len(vals)))...)
	prog = append(prog, isa.Vec(isa.VFnSigm8, 3, 1, 0, 4))
	prog = append(prog, isa.LI(3, 48)...)
	prog = append(prog, isa.Vec(isa.VFnSilu8, 3, 1, 0, 4), isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	sig, _ := ch.ReadLocal(0, 32, len(vals))
	sil, _ := ch.ReadLocal(0, 48, len(vals))
	for i, v := range vals {
		if int8(sig[i]) != tensor.Sigmoid8(v, inS, outS) {
			t.Errorf("sigmoid[%d] = %d, want %d", i, int8(sig[i]), tensor.Sigmoid8(v, inS, outS))
		}
		if int8(sil[i]) != tensor.SiLU8(v, inS, outS) {
			t.Errorf("silu[%d] = %d, want %d", i, int8(sil[i]), tensor.SiLU8(v, inS, outS))
		}
	}
}

func TestVectorNegativeLengthRejected(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(4, -5)...)
	prog = append(prog, isa.Vec(isa.VFnRelu8, 1, 1, 0, 4), isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err == nil {
		t.Error("negative vector length accepted")
	}
}

// TestZeroLengthOperandMarksNothing: a zero-length operand's window is its
// unvalidated base address. It must neither fault nor reach the dirty
// record: a base inside memory would mark a page nothing wrote, and a wild
// one indexes the bitmap at word 512 of 2.
func TestZeroLengthOperandMarksNothing(t *testing.T) {
	cfg := testConfig()
	mem := int32(cfg.Core.LocalMemBytes)
	prog := seq(
		isa.LI(1, 1<<27+5), isa.LI(2, mem), isa.LI(3, 5000),
		one(
			isa.Vec(isa.VFnAdd8, 1, 1, 1, 0),  // n = G0 = 0, every operand at 1<<27+5
			isa.Vec(isa.VFnRelu8, 1, 1, 0, 0), // one source
			isa.Vec(isa.VFnMov8, 3, 3, 0, 0),
			isa.VFill(2, 0, 0x5a), // 0 bytes at len(local)
			isa.VFill(3, 0, 0x5a),
			isa.MemCpy(2, 3, 0, 0),
			isa.Send(3, 0, 0, 3), // 0 bytes to core 0 itself
			isa.Recv(2, 0, 0, 3),
			isa.Halt(),
		))
	for _, ex := range resetExecutors {
		t.Run(ex.name, func(t *testing.T) {
			ch, err := NewChip(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			ex.load(t, ch, Program{Code: prog})
			if _, err := ch.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			ch.dirtyLanes = 0 // the run counts; it must be all the record holds
			assertPowerOn(t, ch, "after the run, before any Reset")
		})
	}
}

func TestCimLoadOffsets(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	c.mem()[0] = 7
	c.sregs[isa.SRegLoadRow] = 5
	c.sregs[isa.SRegLoadChan] = 3
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...) // src
	prog = append(prog, isa.LI(2, 0)...) // mg
	prog = append(prog, isa.LI(3, 1)...) // rows
	prog = append(prog, isa.LI(4, 1)...) // chans
	prog = append(prog, isa.CimLoad(2, 1, 3, 4), isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	gc := cfg.GroupChannels()
	if c.mg[0][5*gc+3] != 7 {
		t.Errorf("weight not loaded at (5,3): %d", c.mg[0][5*gc+3])
	}
}

func TestCimLoadBoundsRejected(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	c.sregs[isa.SRegLoadRow] = int32(cfg.Unit.MacroRows) // off the end
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(3, 1)...)
	prog = append(prog, isa.LI(4, 1)...)
	prog = append(prog, isa.CimLoad(0, 0, 3, 4), isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err == nil {
		t.Error("out-of-bounds CIM_LOAD accepted")
	}
}

func TestStatsPerCore(t *testing.T) {
	cfg := testConfig()
	_, stats := runOn(t, cfg,
		Program{Core: 0, Code: asm(t, "SC_ADDI G1, G0, 1\nHALT")},
		Program{Core: 1, Code: asm(t, "SC_ADDI G1, G0, 1\nSC_ADDI G2, G0, 2\nHALT")},
	)
	if len(stats.Cores) != 4 {
		t.Fatalf("%d core stats, want 4", len(stats.Cores))
	}
	if stats.Cores[1].Instructions <= stats.Cores[0].Instructions {
		t.Error("core 1 should have executed more instructions than core 0")
	}
	if stats.Cores[2].Instructions != 0 {
		t.Error("idle core executed instructions")
	}
}
