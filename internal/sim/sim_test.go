package sim

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
)

func testConfig() arch.Config {
	cfg := arch.DefaultConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 2, 2
	return cfg
}

func runOn(t *testing.T, cfg arch.Config, progs ...Program) (*Chip, *Stats) {
	t.Helper()
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if err := ch.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := ch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return ch, stats
}

// load installs a core's program the way every caller must: LoadProgram is
// the only path from an instruction stream to a core.
func load(t *testing.T, ch *Chip, core int, code []isa.Instruction) {
	t.Helper()
	if err := ch.LoadProgram(Program{Core: core, Code: code}); err != nil {
		t.Fatal(err)
	}
}

func asm(t *testing.T, src string) []isa.Instruction {
	t.Helper()
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestScalarLoop(t *testing.T) {
	// Sum 1..10 into G5, store at local address 100.
	code := asm(t, `
		SC_ADDI G1, G0, 10
		SC_ADDI G5, G0, 0
	loop:	SC_ADD G5, G5, G1
		SC_ADDI G1, G1, -1
		BNE G1, G0, %loop
		SC_ADDI G2, G0, 100
		SC_ST G5, G2, 0
		HALT
	`)
	ch, stats := runOn(t, testConfig(), Program{Core: 0, Code: code})
	mem, err := ch.ReadLocal(0, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := int32(binary.LittleEndian.Uint32(mem)); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
	if stats.Cycles == 0 || stats.Instructions == 0 {
		t.Errorf("stats empty: %+v", stats)
	}
}

func TestScalarALUOps(t *testing.T) {
	code := asm(t, `
		SC_ADDI G1, G0, 100
		SC_ADDI G2, G0, 7
		SC_DIV G3, G1, G2   ; 14
		SC_REM G4, G1, G2   ; 2
		SC_MUL G5, G3, G4   ; 28
		SC_SUB G6, G5, G2   ; 21
		SC_AND G7, G6, G2   ; 5
		SC_OR  G8, G7, G4   ; 7
		SC_XOR G9, G8, G2   ; 0
		SC_SLT G10, G4, G2  ; 1
		SC_MIN G11, G1, G2  ; 7
		SC_MAX G12, G1, G2  ; 100
		SC_SLLI G13, G10, 4 ; 16
		SC_SRAI G14, G1, 2  ; 25
		SC_ADDI G20, G0, 200
		SC_ST G3, G20, 0
		SC_ST G4, G20, 4
		SC_ST G9, G20, 8
		SC_ST G10, G20, 12
		SC_ST G11, G20, 16
		SC_ST G12, G20, 20
		SC_ST G13, G20, 24
		SC_ST G14, G20, 28
		HALT
	`)
	ch, _ := runOn(t, testConfig(), Program{Core: 0, Code: code})
	mem, _ := ch.ReadLocal(0, 200, 32)
	want := []int32{14, 2, 0, 1, 7, 100, 16, 25}
	for i, w := range want {
		if got := int32(binary.LittleEndian.Uint32(mem[i*4:])); got != w {
			t.Errorf("result %d = %d, want %d", i, got, w)
		}
	}
}

func TestG0Hardwired(t *testing.T) {
	code := asm(t, `
		SC_ADDI G0, G0, 42
		SC_ADDI G1, G0, 5
		SC_ADDI G2, G0, 100
		SC_ST G1, G2, 0
		HALT
	`)
	ch, _ := runOn(t, testConfig(), Program{Core: 0, Code: code})
	mem, _ := ch.ReadLocal(0, 100, 4)
	if got := int32(binary.LittleEndian.Uint32(mem)); got != 5 {
		t.Errorf("G0 was written: result %d, want 5", got)
	}
}

func TestGlobalMemoryAccess(t *testing.T) {
	cfg := testConfig()
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.InitGlobal(GlobalSegment{Addr: 64, Data: []byte{11, 22, 33, 44}}); err != nil {
		t.Fatal(err)
	}
	// Copy 4 bytes global->local, add 1 to the first byte, copy back.
	code := append([]isa.Instruction{}, isa.LI(1, GlobalBase+64)...)
	code = append(code, isa.LI(2, 16)...)             // local staging
	code = append(code, isa.ALUI(isa.FnAdd, 3, 0, 4)) // size
	code = append(code, isa.MemCpy(2, 1, 3, 0))       // global -> local
	code = append(code, isa.Instruction{Op: isa.OpScLB, RT: 4, RS: 2, Imm: 0})
	code = append(code, isa.ALUI(isa.FnAdd, 4, 4, 1))
	code = append(code, isa.Instruction{Op: isa.OpScSB, RT: 4, RS: 2, Imm: 0})
	code = append(code, isa.MemCpy(1, 2, 3, 0)) // local -> global
	code = append(code, isa.Halt())
	if err := ch.LoadProgram(Program{Core: 0, Code: code}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, _ := ch.ReadGlobal(64, 4)
	if got[0] != 12 || got[1] != 22 {
		t.Errorf("global after writeback = %v, want [12 22 33 44]", got)
	}
}

func TestVectorOps(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	code := asm(t, `
		; a at 0, b at 16, results at 32+
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 16
		SC_ADDI G3, G0, 32
		SC_ADDI G4, G0, 8    ; length
		VEC_ADD G3, G1, G2, G4
		SC_ADDI G3, G0, 48
		VEC_MAX G3, G1, G2, G4
		SC_ADDI G3, G0, 64
		VEC_RELU G3, G1, G0, G4
		SC_ADDI G5, G0, 3
		SC_ADDI G3, G0, 80
		VEC_MAXS G3, G1, G5, G4
		HALT
	`)
	load(t, ch, 0, code)
	a := []int8{-2, -1, 0, 1, 2, 3, 4, 5}
	b := []int8{1, 1, 1, 1, -1, -1, -1, -1}
	for i := range a {
		ch.cores[0].mem()[i] = byte(a[i])
		ch.cores[0].mem()[16+i] = byte(b[i])
	}
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	check := func(addr int, want []int8, label string) {
		mem, _ := ch.ReadLocal(0, addr, len(want))
		for i, w := range want {
			if int8(mem[i]) != w {
				t.Errorf("%s[%d] = %d, want %d", label, i, int8(mem[i]), w)
			}
		}
	}
	check(32, []int8{-1, 0, 1, 2, 1, 2, 3, 4}, "add")
	check(48, []int8{1, 1, 1, 1, 2, 3, 4, 5}, "max")
	check(64, []int8{0, 0, 0, 1, 2, 3, 4, 5}, "relu")
	check(80, []int8{3, 3, 3, 3, 3, 3, 4, 5}, "maxs")
}

func TestVectorQuantAndReduction(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	// acc32 at 0 (4 values), quantize to int8 at 64 with mul=1 shift=2;
	// reduce-sum the int8s at 80.
	code := asm(t, `
		SC_ADDI G1, G0, 1
		SC_MTS 1, G1       ; QuantMul = 1
		SC_ADDI G1, G0, 2
		SC_MTS 2, G1       ; QuantShift = 2
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 64
		SC_ADDI G3, G0, 4
		VEC_QNT G2, G1, G0, G3
		SC_ADDI G4, G0, 80
		VEC_RSUM8 G4, G2, G0, G3
		HALT
	`)
	load(t, ch, 0, code)
	for i, v := range []int32{100, -100, 8, 515} {
		binary.LittleEndian.PutUint32(ch.cores[0].mem()[i*4:], uint32(v))
	}
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mem, _ := ch.ReadLocal(0, 64, 4)
	want := []int8{25, -25, 2, 127} // 515>>2=128 saturates
	for i, w := range want {
		if int8(mem[i]) != w {
			t.Errorf("qnt[%d] = %d, want %d", i, int8(mem[i]), w)
		}
	}
	sum, _ := ch.ReadLocal(0, 80, 4)
	if got := int32(binary.LittleEndian.Uint32(sum)); got != 129 {
		t.Errorf("rsum = %d, want 129", got)
	}
}

func TestVectorStrides(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	// Gather every 2nd byte: strideA=2.
	code := asm(t, `
		SC_ADDI G1, G0, 2
		SC_MTS 6, G1        ; VecStrideA = 2
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 32
		SC_ADDI G3, G0, 4
		VEC_MOV G2, G1, G0, G3
		HALT
	`)
	load(t, ch, 0, code)
	for i := 0; i < 8; i++ {
		ch.cores[0].mem()[i] = byte(i + 1)
	}
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mem, _ := ch.ReadLocal(0, 32, 4)
	for i, w := range []byte{1, 3, 5, 7} {
		if mem[i] != w {
			t.Errorf("strided mov[%d] = %d, want %d", i, mem[i], w)
		}
	}
}

func TestCimMVMSingleGroup(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	// Weights: 4 rows x 2 chans at local 0: W[r][c] = r+1 for c=0, 1 for c=1.
	// Input: [1 2 3 4] at 64. Expected acc: c0 = 1+4+9+16 = 30, c1 = 10.
	// Requant mul=1 shift=0 -> out [30, 10] at 128.
	code := asm(t, `
		SC_ADDI G1, G0, 1
		SC_MTS 1, G1        ; QuantMul = 1
		SC_ADDI G2, G0, 2
		SC_MTS 16, G2       ; OutChans = 2
		SC_ADDI G3, G0, 0   ; weight addr
		SC_ADDI G4, G0, 0   ; mg index
		SC_ADDI G5, G0, 4   ; rows
		CIM_LOAD G4, G3, G5, G2
		SC_ADDI G6, G0, 64  ; input addr
		SC_ADDI G7, G0, 128 ; output addr
		CIM_MVM G6, G5, G7, 0x2  ; writeback, MG 0
		HALT
	`)
	load(t, ch, 0, code)
	w := []int8{1, 1, 2, 1, 3, 1, 4, 1} // row-major rows x 2
	for i, v := range w {
		ch.cores[0].mem()[i] = byte(v)
	}
	for i, v := range []int8{1, 2, 3, 4} {
		ch.cores[0].mem()[64+i] = byte(v)
	}
	_, err := ch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mem, _ := ch.ReadLocal(0, 128, 2)
	if int8(mem[0]) != 30 || int8(mem[1]) != 10 {
		t.Errorf("mvm out = [%d %d], want [30 10]", int8(mem[0]), int8(mem[1]))
	}
}

func TestCimMVMAccumulateAcrossGroups(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	rows := cfg.Unit.MacroRows
	c := ch.cores[0]
	// Two row tiles on MGs 0 and 1, weights all ones in channel 0: the unit
	// accumulator must combine both tiles before writeback.
	c.sregs[isa.SRegQuantMul] = 1
	c.sregs[isa.SRegQuantShift] = 6
	c.sregs[isa.SRegOutChans] = 1
	for mg := 0; mg < 2; mg++ {
		for r := 0; r < rows; r++ {
			c.group(mg)[r*cfg.GroupChannels()] = 1
		}
	}
	total := 2 * rows
	for i := 0; i < total; i++ {
		c.mem()[i] = 1
	}
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(2, int32(rows))...)
	prog = append(prog, isa.LI(4, int32(rows))...) // second tile input addr
	prog = append(prog, isa.LI(3, int32(total+64))...)
	prog = append(prog, isa.CimMVM(1, 2, 3, isa.MVMFlags(0, 0)))
	prog = append(prog, isa.CimMVM(4, 2, 3, isa.MVMFlags(1, isa.MVMFlagAccumulate|isa.MVMFlagWriteback)))
	prog = append(prog, isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mem, _ := ch.ReadLocal(0, total+64, 1)
	// sum(1 x 1024 rows) = 1024; 1024 >> 6 = 16.
	if int8(mem[0]) != 16 {
		t.Errorf("accumulated mvm out = %d, want 16", int8(mem[0]))
	}
}

func TestCimMVMGatherSegments(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	c.sregs[isa.SRegQuantMul] = 1
	c.sregs[isa.SRegSegCount] = 2
	c.sregs[isa.SRegSegStride] = 100
	c.sregs[isa.SRegOutChans] = 1
	// Weight column of ones; input = 2 segments of 3 bytes at 0 and 100.
	for r := 0; r < 6; r++ {
		c.group(0)[r*cfg.GroupChannels()] = 1
	}
	for i := 0; i < 3; i++ {
		c.mem()[i] = byte(i + 1)  // 1 2 3
		c.mem()[100+i] = byte(10) // 10 10 10
	}
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(2, 6)...)
	prog = append(prog, isa.LI(3, 200)...)
	prog = append(prog, isa.CimMVM(1, 2, 3, isa.MVMFlagWriteback))
	prog = append(prog, isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mem, _ := ch.ReadLocal(0, 200, 1)
	if int8(mem[0]) != 36 { // 1+2+3+30
		t.Errorf("segmented mvm = %d, want 36", int8(mem[0]))
	}
}

func TestCimMVMRawWriteback(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	c := ch.cores[0]
	c.sregs[isa.SRegOutChans] = 2
	for r := 0; r < 4; r++ {
		c.group(0)[r*cfg.GroupChannels()] = 100 // chan 0: large accumulation
		c.group(0)[r*cfg.GroupChannels()+1] = 1
	}
	for i := 0; i < 4; i++ {
		c.mem()[i] = 100
	}
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(2, 4)...)
	prog = append(prog, isa.LI(3, 64)...)
	prog = append(prog, isa.CimMVM(1, 2, 3, isa.MVMFlagWriteRaw))
	prog = append(prog, isa.Halt())
	load(t, ch, 0, prog)
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mem, _ := ch.ReadLocal(0, 64, 8)
	if got := int32(binary.LittleEndian.Uint32(mem)); got != 40000 {
		t.Errorf("raw acc[0] = %d, want 40000", got)
	}
	if got := int32(binary.LittleEndian.Uint32(mem[4:])); got != 400 {
		t.Errorf("raw acc[1] = %d, want 400", got)
	}
}

func TestSendRecv(t *testing.T) {
	cfg := testConfig()
	sender := asm(t, `
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 8
		SC_ADDI G3, G0, 1   ; dest core 1
		SEND G1, G2, G3, 7
		HALT
	`)
	receiver := asm(t, `
		SC_ADDI G1, G0, 64
		SC_ADDI G2, G0, 8
		SC_ADDI G3, G0, 0   ; source core 0
		RECV G1, G2, G3, 7
		HALT
	`)
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		ch.cores[0].mem()[i] = byte(i * 3)
	}
	ch.LoadProgram(Program{Core: 0, Code: sender})
	ch.LoadProgram(Program{Core: 1, Code: receiver})
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mem, _ := ch.ReadLocal(1, 64, 8)
	for i := 0; i < 8; i++ {
		if mem[i] != byte(i*3) {
			t.Errorf("recv[%d] = %d, want %d", i, mem[i], i*3)
		}
	}
}

func TestRecvBeforeSend(t *testing.T) {
	// Receiver starts waiting before the sender sends: must not deadlock.
	cfg := testConfig()
	sender := asm(t, `
		SC_ADDI G5, G0, 100
	delay:	SC_ADDI G5, G5, -1
		BNE G5, G0, %delay
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 4
		SC_ADDI G3, G0, 1
		SEND G1, G2, G3, 9
		HALT
	`)
	receiver := asm(t, `
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 4
		SC_ADDI G3, G0, 0
		RECV G1, G2, G3, 9
		HALT
	`)
	ch, _ := NewChip(&cfg)
	ch.cores[0].mem()[0] = 77
	ch.LoadProgram(Program{Core: 0, Code: sender})
	ch.LoadProgram(Program{Core: 1, Code: receiver})
	if _, err := ch.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	mem, _ := ch.ReadLocal(1, 0, 1)
	if mem[0] != 77 {
		t.Errorf("late recv = %d, want 77", mem[0])
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	cfg := testConfig()
	// Core 0 spins a while then barriers; others barrier immediately.
	slow := asm(t, `
		SC_ADDI G5, G0, 500
	spin:	SC_ADDI G5, G5, -1
		BNE G5, G0, %spin
		BARRIER 1
		HALT
	`)
	fast := asm(t, `
		BARRIER 1
		HALT
	`)
	ch, _ := NewChip(&cfg)
	ch.LoadProgram(Program{Core: 0, Code: slow})
	for i := 1; i < 4; i++ {
		ch.LoadProgram(Program{Core: i, Code: fast})
	}
	stats, err := ch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// All cores halt after the slow core's barrier arrival.
	for _, cs := range stats.Cores {
		if cs.HaltCycle < 500 {
			t.Errorf("core %d halted at %d, before the barrier released", cs.CoreID, cs.HaltCycle)
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	cfg := testConfig()
	hang := asm(t, `
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 4
		SC_ADDI G3, G0, 1
		RECV G1, G2, G3, 1
		HALT
	`)
	halt := asm(t, "HALT")
	ch, _ := NewChip(&cfg)
	ch.LoadProgram(Program{Core: 0, Code: hang})
	ch.LoadProgram(Program{Core: 1, Code: halt})
	_, err := ch.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("Run = %v, want deadlock error", err)
	}
}

// runtimeErrorCases are programs that fault: name, source, and a substring of
// the error. TestResetRestoresPowerOnState reruns them behind a prologue.
var runtimeErrorCases = []struct {
	name string
	src  string
	want string
}{
	{"div by zero", "SC_ADDI G1, G0, 5\nSC_DIV G2, G1, G0\nHALT", "division by zero"},
	{"oob store", "SC_LUI G1, 512\nSC_ST G1, G1, 0\nHALT", "out of bounds"},
	{"bad sreg", "SC_MTS 31, G0\nHALT", "special register"},
	{"bad mvm length", "CIM_MVM G0, G0, G0, 0\nHALT", "input length"},
	{"bad mvm group", "SC_ADDI G1, G0, 64\nCIM_MVM G0, G1, G0, 0x1f0\nHALT", "macro group"},
	{"send oob core", "SC_ADDI G3, G0, 30\nSC_ADDI G2, G0, 4\nSEND G0, G2, G3, 0\nHALT", "out of range"},
	// 65537 elements at stride 65536: (n-1)*stride+1 wraps int32 to 1, a
	// span that used to validate and then index 4 GiB past local memory.
	{"vector span wraps int32", "SC_LUI G1, 1\nSC_MTS 6, G1\nSC_ADDI G2, G1, 1\nVEC_RSUM8 G0, G0, G0, G2\nHALT", "out of bounds"},
}

func TestRuntimeErrors(t *testing.T) {
	cfg := testConfig()
	for _, tc := range runtimeErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			// Illegal encodings are rejected when the program is loaded,
			// data-dependent faults when it runs — as errors, never panics —
			// and a fault is the reference executor's, at the same core and
			// pc, with the golden row's text.
			ch, _ := NewChip(&cfg)
			prog := Program{Core: 0, Code: asm(t, tc.src)}
			err := ch.LoadProgram(prog)
			if err == nil {
				_, err = ch.Run(context.Background())
				matchRef(t, ch, 0, err, []Program{prog}, nil)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("load+Run = %v, want %q", err, tc.want)
			}
			checkGolden(t, "error/"+tc.name, nil, err)
		})
	}
}

func TestCycleLimit(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	ch.CycleLimit = 1000
	ch.LoadProgram(Program{Core: 0, Code: asm(t, "spin: JMP %spin")})
	if _, err := ch.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "cycle limit") {
		t.Errorf("Run = %v, want cycle limit error", err)
	}
}

func TestProgramTooLarge(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	big := make([]isa.Instruction, cfg.Core.InstMemBytes/4+1)
	if err := ch.LoadProgram(Program{Core: 0, Code: big}); err == nil {
		t.Error("LoadProgram accepted an oversized program")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Stats {
		cfg := testConfig()
		ch, _ := NewChip(&cfg)
		for core := 0; core < 4; core++ {
			peer := (core + 1) % 4
			prog := []isa.Instruction{}
			prog = append(prog, isa.LI(1, 0)...)
			prog = append(prog, isa.LI(2, 64)...)
			prog = append(prog, isa.LI(3, int32(peer))...)
			prog = append(prog, isa.LI(4, int32((core+3)%4))...)
			prog = append(prog, isa.Send(1, 2, 3, 5))
			prog = append(prog, isa.Recv(1, 2, 4, 5))
			prog = append(prog, isa.Barrier(1))
			prog = append(prog, isa.Halt())
			ch.LoadProgram(Program{Core: core, Code: prog})
		}
		stats, err := ch.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions || a.Energy.TotalPJ() != b.Energy.TotalPJ() {
		t.Errorf("nondeterministic: %d/%d cycles, %v/%v pJ", a.Cycles, b.Cycles,
			a.Energy.TotalPJ(), b.Energy.TotalPJ())
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := testConfig()
	_, stats := runOn(t, cfg, Program{Core: 0, Code: asm(t, `
		SC_ADDI G1, G0, 10
		SC_ADDI G2, G0, 16
		VFILL G2, G1, 3
		HALT
	`)})
	if stats.Energy.TotalPJ() <= 0 {
		t.Error("no energy accounted")
	}
	if stats.Energy.LocalMemPJ <= 0 {
		t.Error("vfill consumed no local memory energy")
	}
	if stats.Utilization(int(isa.UnitTransfer)) <= 0 {
		t.Error("transfer unit shows zero utilization")
	}
	if stats.TOPS(1.0) != 0 {
		t.Error("TOPS should be zero without MACs")
	}
	if stats.Seconds(1.0) <= 0 {
		t.Error("no time elapsed")
	}
	if !strings.Contains(stats.String(), "cycles") {
		t.Error("summary missing cycles")
	}
}

func TestPipelineOverlap(t *testing.T) {
	// A transfer-unit VFILL and scalar work should overlap: total cycles
	// must be well below the sum of both costs.
	cfg := testConfig()
	_, overlapped := runOn(t, cfg, Program{Core: 0, Code: asm(t, `
		SC_ADDI G1, G0, 400
		SC_ADDI G2, G0, 4096
		VFILL G2, G1, 0     ; long fill on the transfer unit
		SC_ADDI G5, G0, 50  ; independent scalar loop
	loop:	SC_ADDI G5, G5, -1
		BNE G5, G0, %loop
		HALT
	`)})
	_, serial := runOn(t, cfg, Program{Core: 0, Code: asm(t, `
		SC_ADDI G1, G0, 400
		SC_ADDI G2, G0, 4096
		VFILL G2, G1, 0
		SC_ADDI G3, G0, 4096
		SC_LB G4, G2, 0     ; reads the filled region: must wait
		SC_ADDI G5, G0, 50
	loop:	SC_ADDI G5, G5, -1
		BNE G5, G0, %loop
		HALT
	`)})
	if overlapped.Cycles >= serial.Cycles {
		t.Errorf("overlap (%d cycles) should beat hazard-serialized (%d)", overlapped.Cycles, serial.Cycles)
	}
}

func TestMemoryHazardEnforced(t *testing.T) {
	// A scalar load of a region being VFILLed must see the filled value
	// (functional) and stall (timing).
	cfg := testConfig()
	ch, stats := runOn(t, cfg, Program{Core: 0, Code: asm(t, `
		SC_ADDI G1, G0, 1000
		SC_ADDI G2, G0, 512
		VFILL G2, G1, 9
		SC_LB G4, G2, 100
		SC_ADDI G6, G0, 2000
		SC_SB G4, G6, 0
		HALT
	`)})
	mem, _ := ch.ReadLocal(0, 2000, 1)
	if mem[0] != 9 {
		t.Errorf("load observed %d, want 9", mem[0])
	}
	var stalls int64
	for _, cs := range stats.Cores {
		stalls += cs.StallCycles
	}
	if stalls == 0 {
		t.Error("no stall cycles recorded for the memory hazard")
	}
}
