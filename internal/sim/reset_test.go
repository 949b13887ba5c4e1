package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
)

// Chip.Reset clears by record (the pages and macro groups the runs touched,
// in the lanes they ran) and the pooled differentials cannot see a record
// that is too small: compiled programs write before they read, so a Reset
// that clears nothing at all still reproduces every output. These tests
// look at the state itself.

var zeros [1 << 16]byte

// firstNonzero returns the index of b's first nonzero byte, or -1.
func firstNonzero(b []byte) int {
	for off := 0; off < len(b); off += len(zeros) {
		chunk := b[off:min(off+len(zeros), len(b))]
		if !bytes.Equal(chunk, zeros[:len(chunk)]) {
			for i, v := range chunk {
				if v != 0 {
					return off + i
				}
			}
		}
	}
	return -1
}

// sameReads reports whether a and b read as the same memory: equal where
// both are backed, and zero where only one of them is.
func sameReads(a, b []byte) bool {
	n := min(len(a), len(b))
	return bytes.Equal(a[:n], b[:n]) && firstNonzero(a[n:]) < 0 && firstNonzero(b[n:]) < 0
}

// powerOnDiff scans the whole data plane — every allocated lane's local
// memory, backed macro groups, accumulator and gather buffer on every core,
// each to its capacity, which a retargeted chip may reslice into — and the
// dirty records, and names the first thing that is not as NewChip leaves
// it; "" when the chip is in power-on state.
func powerOnDiff(ch *Chip) string {
	if ch.dirtyLanes != 0 {
		return fmt.Sprintf("chip records %d dirty lanes", ch.dirtyLanes)
	}
	for _, c := range ch.cores {
		for w, word := range c.dirty[:cap(c.dirty)] {
			if word != 0 {
				return fmt.Sprintf("core %d: dirty word %d = %#x", c.id, w, word)
			}
		}
		if c.mgDirty != 0 {
			return fmt.Sprintf("core %d: mgDirty = %#x", c.id, c.mgDirty)
		}
		for l := range c.images {
			im := &c.images[l]
			if i := firstNonzero(im.local[:cap(im.local)]); i >= 0 {
				return fmt.Sprintf("core %d lane %d: local[%d] = %#x", c.id, l, i, im.local[:i+1][i])
			}
			for g, m := range im.mg {
				if i := firstNonzero(m[:cap(m)]); i >= 0 {
					return fmt.Sprintf("core %d lane %d: macro group %d byte %d = %#x", c.id, l, g, i, m[:i+1][i])
				}
			}
			for i, v := range im.cimAcc[:cap(im.cimAcc)] {
				if v != 0 {
					return fmt.Sprintf("core %d lane %d: cimAcc[%d] = %d", c.id, l, i, v)
				}
			}
			if i := firstNonzero(im.gather[:cap(im.gather)]); i >= 0 {
				return fmt.Sprintf("core %d lane %d: gather[%d] = %#x", c.id, l, i, im.gather[:i+1][i])
			}
		}
	}
	return ""
}

func assertPowerOn(t *testing.T, ch *Chip, when string) {
	t.Helper()
	if diff := powerOnDiff(ch); diff != "" {
		t.Fatalf("%s: not power-on state: %s", when, diff)
	}
	if err := ch.CheckPayloadPool(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// runOccupancy stages one laneInput per lane at occupancy b and runs the
// chip; the run's error, if any, is the caller's business. With progs, the
// programs ch runs, it holds every lane to the reference executor.
func runOccupancy(t *testing.T, ch *Chip, b int, progs []Program) (*Stats, error) {
	t.Helper()
	if err := ch.SetLanes(b); err != nil {
		t.Fatal(err)
	}
	staged := make([][]byte, b)
	for l := range staged {
		if err := ch.InitGlobalLane(l, GlobalSegment{Addr: laneIn, Data: laneInput(l)}); err != nil {
			t.Fatal(err)
		}
		staged[l] = slices.Clone(readsAs(ch.global[l], laneMemBytes))
	}
	stats, err := ch.Run(context.Background())
	for l := 0; progs != nil && l < b; l++ {
		matchRef(t, ch, l, err, progs, staged[l])
	}
	return stats, err
}

// decodedMode is a form a predecoded program takes: fused, as LoadProgram
// leaves it, or unfused, predecoded without isa.Fuse. LoadProgram trusts a
// Program's Decoded, so an unfused program runs one architectural
// instruction a step, and a fused run must execute exactly as it does.
type decodedMode struct {
	name  string
	fused bool
}

// progs returns ps in mode m.
func (m decodedMode) progs(ps []Program) []Program {
	if m.fused {
		return ps
	}
	ps = slices.Clone(ps)
	for i := range ps {
		// An illegal encoding keeps Decoded nil: LoadProgram reports it.
		if dec, err := isa.Predecode(ps[i].Code); err == nil {
			ps[i].Decoded = dec
		}
	}
	return ps
}

// load installs ps on ch in mode m.
func (m decodedMode) load(t *testing.T, ch *Chip, ps ...Program) {
	t.Helper()
	for _, p := range m.progs(ps) {
		if err := ch.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
	}
}

// in returns lc with its programs in mode m.
func (lc laneCase) in(m decodedMode) *laneCase {
	lc.progs = m.progs(lc.progs)
	return &lc
}

// decodedModes are the two forms the one stepper runs.
var decodedModes = []decodedMode{{"fused", true}, {"unfused", false}}

// resetExecutors are the ways a program reaches a data plane: the predecoded
// handlers, fused and unfused, at up to 8 lanes.
var resetExecutors = []decodedMode{{"decoded/fused", true}, {"decoded/unfused", false}}

// boundaryCases write windows placed against the dirty record's edges on a
// core with mem bytes of local memory: straddling a page boundary through
// every kind of store, ending exactly at the end of memory, and strided
// backwards across a boundary. Inputs are a lane's 64 bytes at local[0:64].
func boundaryCases(mem int32) []laneCase {
	const page = 1 << dirtyShift
	in, halt := copyIn(0, laneIn, 64), spinHalt()
	single := func(name string, body ...[]isa.Instruction) laneCase {
		return laneCase{name: name, progs: []Program{{Core: 0, Code: seq(in, seq(body...), halt)}}}
	}
	return []laneCase{
		single("vfill straddles", isa.LI(1, page-6), isa.LI(2, 12), one(isa.VFill(1, 2, 0x5a))),
		single("vfill whole second page", isa.LI(1, page), isa.LI(2, page), one(isa.VFill(1, 2, 0x5a))),
		single("vfill ends at len(local)", isa.LI(1, mem-16), isa.LI(2, 16), one(isa.VFill(1, 2, 0x5a))),
		single("vfill last byte", isa.LI(1, mem-1), isa.LI(2, 1), one(isa.VFill(1, 2, 0x5a))),
		single("word store straddles", isa.LI(1, 2*page-2), isa.LI(2, 0x01020304), one(isa.Store(2, 1, 0))),
		single("byte stores either side", isa.LI(1, page), isa.LI(2, 0x77),
			one(isa.Instruction{Op: isa.OpScSB, RT: 2, RS: 1, Imm: -1}, isa.Instruction{Op: isa.OpScSB, RT: 2, RS: 1, Imm: 0})),
		single("memcpy from global straddles", copyIn(2*page-20, laneIn, 64)),
		single("memcpy local to local straddles", isa.LI(1, page-1), isa.LI(2, 0), isa.LI(3, 2), one(isa.MemCpy(1, 2, 3, 0))),
		single("vector dst straddles", vec(isa.VFnMov8, 2*page-30, 0, 0, 64)),
		single("vector dst strided backwards", setSReg(isa.SRegVecStrideD, -3), vec(isa.VFnMov8, page+40, 0, 0, 20)),
		single("reduction dst straddles", vec(isa.VFnRSum8, page-2, 0, 0, 64)),
		single("mvm raw writeback straddles", setSReg(isa.SRegOutChans, 8),
			loadWeights(0, 4), mvm(32, 4, page-12, isa.MVMFlagWriteRaw)),
		single("mvm requant writeback straddles", quant8(), setSReg(isa.SRegQuantShift, 0),
			loadWeights(0, 4), mvm(32, 4, 2*page-3, isa.MVMFlagWriteback)),
		{name: "recv straddles", progs: []Program{
			{Core: 0, Code: seq(in, isa.LI(1, 0), isa.LI(2, 64), isa.LI(3, 1), one(isa.Send(1, 2, 3, 7)), halt)},
			{Core: 1, Code: seq(isa.LI(1, page-32), isa.LI(2, 64), isa.LI(3, 0), one(isa.Recv(1, 2, 3, 7)), halt)},
		}},
	}
}

// faultCases fault after they have written: a prologue dirties local memory
// and a macro group, then each TestRuntimeErrors program — or one of three
// that fault in the middle of an instruction's work — runs behind it.
//
// Audit (every handler): validation — the last error return
// — comes before the first store to local memory or to a macro group, and
// nothing between that store and the handler's hazardIssue (which marks the
// window; CIM_MVM alone stores first) or mgDirty mark can fail, so a faulting
// instruction has either marked what it wrote or written nothing. The one
// state written ahead of a later error return is CIM_MVM's gather buffer and
// accumulator (a writeback window out of bounds is found after the MACs),
// which reset always clears. Cancellation, the cycle limit and a deadlock
// stop a run between instructions.
func faultCases(t *testing.T, globalBytes int32) []laneCase {
	prologue := asm(`
		SC_ADDI G20, G0, 77
		SC_LUI G21, 1          ; 65536, page 16
		SC_SB G20, G21, 0
		SC_ADDI G22, G0, 3
		SC_ADDI G23, G0, 1
		CIM_LOAD G22, G21, G23, G23
	`)
	var out []laneCase
	for _, tc := range runtimeErrorCases {
		out = append(out, laneCase{name: tc.name, progs: []Program{{Core: 0, Code: seq(prologue, asm(tc.src))}}})
	}
	in := copyIn(0, laneIn, 64)
	return append(out,
		laneCase{name: "mvm writeback out of bounds", progs: []Program{{Core: 0, Code: seq(prologue, in,
			loadWeights(0, 4), setSReg(isa.SRegSegCount, 2), setSReg(isa.SRegSegStride, 16),
			mvm(32, 4, -8, isa.MVMFlagWriteRaw), one(isa.Halt()))}}},
		laneCase{name: "memcpy to global out of bounds", progs: []Program{{Core: 0, Code: seq(prologue, in,
			isa.LI(1, GlobalBase+globalBytes-8), isa.LI(2, 0), isa.LI(3, 64), one(isa.MemCpy(1, 2, 3, 0), isa.Halt()))}}},
		laneCase{name: "recv size mismatch", progs: []Program{
			{Core: 0, Code: seq(prologue, in, isa.LI(1, 0), isa.LI(2, 64), isa.LI(3, 1), one(isa.Send(1, 2, 3, 7)), spinHalt())},
			{Core: 1, Code: seq(prologue, isa.LI(1, 128), isa.LI(2, 32), isa.LI(3, 0), one(isa.Recv(1, 2, 3, 7), isa.Halt()))},
		}},
	)
}

// TestResetRestoresPowerOnState: after any Run, however it ended, Reset
// leaves every byte of every allocated lane zero and every record empty,
// exactly as NewChip does.
func TestResetRestoresPowerOnState(t *testing.T) {
	cfg := testConfig()
	// Local memory that is not a whole number of pages: the last page is short.
	odd := testConfig()
	odd.Core.LocalMemBytes = 3<<dirtyShift + 1000

	// Every lane case at occupancy 8 -> 2 -> 8 with a Reset after each, then
	// 8 and 2 with none between them: Reset owes the lanes of the wider run.
	for _, lc := range programs() {
		for _, ex := range resetExecutors {
			t.Run(lc.name+"/"+ex.name, func(t *testing.T) {
				lc := lc.in(ex)
				ch := lc.stage(t, &cfg, WithLanes(8))
				assertPowerOn(t, ch, "fresh chip")
				for i, b := range []int{8, 2, 8} {
					progs := lc.progs
					if i > 0 {
						progs = nil // the first run's lanes are the reference's
					}
					stats, err := runOccupancy(t, ch, b, progs)
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, lc.golden(), stats, nil)
					if powerOnDiff(ch) == "" {
						t.Fatal("the run left nothing to clear: the case proves nothing")
					}
					ch.Reset()
					assertPowerOn(t, ch, fmt.Sprintf("Reset after %d lanes", b))
				}
				for _, b := range []int{8, 2} {
					if _, err := runOccupancy(t, ch, b, nil); err != nil {
						t.Fatal(err)
					}
				}
				ch.Reset()
				assertPowerOn(t, ch, "Reset after 8 lanes then 2 lanes")
			})
		}
	}

	for _, c := range []struct {
		name string
		cfg  *arch.Config
	}{{"boundary", &cfg}, {"boundary/odd memory", &odd}} {
		for _, lc := range boundaryCases(int32(c.cfg.Core.LocalMemBytes)) {
			for _, ex := range resetExecutors {
				t.Run(c.name+"/"+lc.name+"/"+ex.name, func(t *testing.T) {
					lc := lc.in(ex)
					ch := lc.stage(t, c.cfg, WithLanes(3))
					assertPowerOn(t, ch, "fresh chip")
					stats, err := runOccupancy(t, ch, 3, lc.progs)
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, "reset/"+c.name+"/"+lc.name, stats, nil)
					ch.Reset()
					assertPowerOn(t, ch, "Reset")
				})
			}
		}
	}

	for _, lc := range faultCases(t, int32(cfg.Chip.GlobalMemBytes)) {
		for _, ex := range resetExecutors {
			t.Run("fault/"+lc.name+"/"+ex.name, func(t *testing.T) {
				ch, err := NewChip(&cfg, WithLanes(2))
				if err != nil {
					t.Fatal(err)
				}
				ch.EnsureGlobal(laneMemBytes)
				// An illegal encoding already fails to load on the predecoded
				// pipeline; the chip it leaves behind must be as clean.
				for _, p := range ex.progs(lc.progs) {
					if err = ch.LoadProgram(p); err != nil {
						break
					}
				}
				var stats *Stats
				if err == nil {
					stats, err = runOccupancy(t, ch, 2, lc.progs)
				}
				if err == nil {
					t.Fatal("the program did not fault")
				}
				checkGolden(t, "reset/fault/"+lc.name, stats, err)
				ch.Reset()
				assertPowerOn(t, ch, "Reset after "+err.Error())
			})
		}
	}

	// A run cancelled in the middle of loops that fill, copy and load on four
	// cores: the loops are abandoned wherever they were. The loops never end;
	// the cancel lands some 0.2M cycles in, and the cycle limit, about 1 s of
	// simulation further, stops a run whose context goes unpolled.
	loop := seq(copyIn(0, laneIn, 64),
		isa.LI(1, 1<<dirtyShift-6), isa.LI(2, 20), isa.LI(3, 300000), isa.LI(4, 5000),
		isa.LI(5, 2), isa.LI(6, 4), isa.LI(7, 8), isa.LI(8, 0),
		one(
			isa.VFill(1, 2, 0x11),
			isa.VFill(3, 4, 0x22),
			isa.MemCpy(3, 8, 2, 9000),
			isa.CimLoad(5, 8, 6, 7),
			isa.Jmp(-5),
		))
	for _, m := range decodedModes {
		t.Run("cancelled/"+m.name, func(t *testing.T) {
			ch, err := NewChip(&cfg, WithLanes(4))
			if err != nil {
				t.Fatal(err)
			}
			ch.CycleLimit = 50_000_000
			ch.EnsureGlobal(laneMemBytes)
			for core := 0; core < 4; core++ {
				m.load(t, ch, Program{Core: core, Code: loop})
			}
			if err := ch.SetLanes(3); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < 3; l++ {
				if err := ch.InitGlobalLane(l, GlobalSegment{Addr: laneIn, Data: laneInput(l)}); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			if _, err := ch.Run(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("Run = %v, want context.Canceled", err)
			}
			if powerOnDiff(ch) == "" {
				t.Fatal("the cancelled run left nothing to clear")
			}
			ch.Reset()
			assertPowerOn(t, ch, "Reset after a cancelled run")
		})
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

// fuzzResetProgram assembles the program FuzzResetClean runs: one store of
// the chosen kind to a fuzzed window of a core whose local memory holds a
// lane's 64 input bytes at [0, 64). Core 1 takes part in the RECV path only.
func fuzzResetProgram(path uint8, a, n, stride int32, wide bool) []Program {
	in, halt := copyIn(0, laneIn, 64), spinHalt()
	var body []isa.Instruction
	switch path % 7 {
	case 0: // scalar store
		st := isa.Instruction{Op: isa.OpScSB, RT: 5, RS: 4}
		if wide {
			st = isa.Store(5, 4, 0)
		}
		body = seq(isa.LI(4, a), isa.LI(5, 0x5a6b7c7d), one(st))
	case 1:
		body = seq(isa.LI(4, a), isa.LI(5, n), one(isa.VFill(4, 5, 0x5a)))
	case 2: // MEMCPY from global, or within local memory
		body = copyIn(a, laneIn, n)
		if wide {
			body = seq(isa.LI(1, a), isa.LI(2, 0), isa.LI(3, n), one(isa.MemCpy(1, 2, 3, 0)))
		}
	case 3:
		return []Program{
			{Core: 0, Code: seq(isa.LI(1, 0), isa.LI(2, n), isa.LI(3, 1),
				one(isa.VFill(1, 2, 0x5a), isa.Send(1, 2, 3, 7)), halt)},
			{Core: 1, Code: seq(isa.LI(1, a), isa.LI(2, n), isa.LI(3, 0), one(isa.Recv(1, 2, 3, 7)), halt)},
		}
	case 4: // MVM writeback: 32 raw bytes or 8 requantized
		flags := uint16(isa.MVMFlagWriteback)
		if wide {
			flags = isa.MVMFlagWriteRaw
		}
		body = seq(quant8(), setSReg(isa.SRegQuantShift, 0), loadWeights(0, 4), mvm(32, 4, a, flags))
	case 5: // vector destination, any stride
		body = seq(setSReg(isa.SRegVecStrideD, stride), vec(isa.VFnAddS8, a, 0, 0x33, n))
	case 6: // CIM_LOAD: the group, tile shape and offsets all come from the input
		body = seq(setSReg(isa.SRegLoadRow, a%7), setSReg(isa.SRegLoadChan, stride),
			isa.LI(1, 0), isa.LI(2, n%9), isa.LI(3, n%8), isa.LI(4, a%6), one(isa.CimLoad(4, 1, 2, 3)))
	}
	return []Program{{Core: 0, Code: seq(in, body, halt)}}
}

// FuzzResetClean: whatever one store does — every kind of store, at any
// address, size, stride and occupancy, fused or unfused, faulting or not —
// the lanes end as the reference executor's, and Reset returns the whole chip
// to power-on state.
func FuzzResetClean(f *testing.F) {
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 2
	cfg.Chip.GlobalMemBytes = laneMemBytes // a chip per input: keep it small
	cfg.Core.NumMacroGroups = 4
	cfg.Core.LocalMemBytes = 3<<dirtyShift + 1000
	mem := uint32(cfg.Core.LocalMemBytes)
	for path := uint8(0); path < 7; path++ {
		// The input backs the first page: windows at the hole's low edge,
		// across it, inside it and across the last page edge.
		for _, addr := range []uint32{0, 1<<dirtyShift - 3, 1 << dirtyShift, 2<<dirtyShift - 3, 2 << dirtyShift,
			3<<dirtyShift - 5, mem - 40, mem - 1, mem, mem + 9} {
			f.Add(path, addr, uint16(40), int8(1), path+uint8(addr))
			f.Add(path+7, addr, uint16(599), int8(-2), uint8(addr))
		}
	}
	f.Fuzz(func(t *testing.T, path uint8, addr uint32, size uint16, stride int8, mode uint8) {
		// A little past the end of memory, so that some windows fault.
		a, n := int32(addr%(mem+64)), int32(size%600)
		lanes := 1 + int(mode&3)
		ch, err := NewChip(&cfg, WithLanes(4))
		if err != nil {
			t.Fatal(err)
		}
		ch.EnsureGlobal(laneMemBytes)
		progs := fuzzResetProgram(path, a, n, int32(stride)%4, path >= 7)
		decodedModes[mode>>2&1].load(t, ch, progs...)
		_, _ = runOccupancy(t, ch, lanes, progs) // a fault is as good as a halt
		ch.Reset()
		assertPowerOn(t, ch, "Reset")
	})
}

// TestLoadProgramsRebindsChip: a chip that ran one program, once Reset and
// given another program's streams and global memory, runs that program as a
// chip built for it does, output and full report. The pairs include a program
// on two cores followed by one on a single core: the core the second program
// does not name must hold no program and halt at once, not rerun the old one.
func TestLoadProgramsRebindsChip(t *testing.T) {
	cfg := testConfig()
	cases := programs()
	in := laneInput(1)
	for i, prev := range cases {
		next := cases[(i+1)%len(cases)]
		t.Run(prev.name+"/then/"+next.name, func(t *testing.T) {
			want, wantStats := next.runAlone(t, &cfg, in)
			ch := prev.stage(t, &cfg)
			if _, err := runOccupancy(t, ch, 1, nil); err != nil {
				t.Fatal(err)
			}
			ch.Reset()
			if err := ch.ZeroGlobal(0, laneMemBytes); err != nil {
				t.Fatal(err)
			}
			if err := ch.LoadPrograms(next.progs); err != nil {
				t.Fatal(err)
			}
			if err := ch.InitGlobal(GlobalSegment{Addr: laneUniform, Data: next.uniform}); err != nil {
				t.Fatal(err)
			}
			next.runLanes(t, ch, [][]byte{in}, [][]byte{want}, wantStats)
		})
	}

	ch := cases[0].stage(t, &cfg)
	if err := ch.LoadPrograms(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Run(context.Background()); err == nil || err.Error() != "sim: no programs loaded" {
		t.Fatalf("Run after LoadPrograms(nil) = %v, want no programs loaded", err)
	}
}

// TestRetargetMatchesNewChip: a chip that ran, with global memory grown past
// its configuration and a full payload pool, is retargeted through MG sizes
// 8 -> 16 -> 4 -> 16, flit widths 8 -> 16, and last to a larger mesh with
// less local and global memory, whose payload bound is below what the pool
// holds. After every Retarget it is the chip NewChip builds for the step's
// configuration: every size and derived constant the same, every byte zero
// to the capacity of every buffer it kept, global memory included, and the
// payload pool within the new bound. Each lane case then runs on both with
// the same report and leaves the same memory behind, and the chip is
// retargeted again before the next.
func TestRetargetMatchesNewChip(t *testing.T) {
	base := testConfig()
	base.Chip.GlobalMemBytes = 64 << 10
	mg16 := base.WithMacrosPerGroup(16)
	last := mg16.WithFlitBytes(16).WithCoreMesh(3, 2).WithLocalMemBytes(64 << 10)
	last.Chip.GlobalMemBytes = 32 << 10
	steps := []arch.Config{mg16, base.WithMacrosPerGroup(4), mg16, mg16.WithFlitBytes(16), last}

	cases := programs()
	ch := cases[1].stage(t, &base, WithLanes(2)) // send/recv: the pool gets its payload
	if _, err := runOccupancy(t, ch, 2, nil); err != nil {
		t.Fatal(err)
	}
	grown := 2 * base.Chip.GlobalMemBytes
	ch.EnsureGlobal(grown)
	if err := ch.InitGlobal(GlobalSegment{Addr: grown - 4, Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	var bufs [][]byte
	for range 64 {
		bufs = append(bufs, ch.getPayload(8<<10))
	}
	for _, b := range bufs {
		ch.putPayload(b)
	}
	if ch.pooledBytes <= last.NumCores()*last.Core.LocalMemBytes {
		t.Fatalf("the pool holds %d bytes, within the last bound: the trim is untested", ch.pooledBytes)
	}

	for _, cfg := range steps {
		for _, lc := range cases {
			label := cfg.Name + "/" + lc.name
			if err := ch.Retarget(&cfg); err != nil {
				t.Fatal(err)
			}
			assertPowerOn(t, ch, label)
			for l, g := range ch.global {
				if i := firstNonzero(g[:cap(g)]); i >= 0 {
					t.Fatalf("%s: lane %d global byte %d is %#x after Retarget", label, l, i, g[:i+1][i])
				}
			}
			fresh, err := NewChip(&cfg, WithLanes(2))
			if err != nil {
				t.Fatal(err)
			}
			if diff := chipDiff(ch, fresh); diff != "" {
				t.Fatalf("%s: retargeted chip unlike a new one: %s", label, diff)
			}

			ch.EnsureGlobal(laneMemBytes)
			if err := ch.LoadPrograms(lc.progs); err != nil {
				t.Fatal(err)
			}
			if err := ch.InitGlobal(GlobalSegment{Addr: laneUniform, Data: lc.uniform}); err != nil {
				t.Fatal(err)
			}
			fresh = lc.stage(t, &cfg, WithLanes(2))
			got, err := runOccupancy(t, ch, 2, nil)
			want, wantErr := runOccupancy(t, fresh, 2, nil)
			if err != nil || wantErr != nil {
				t.Fatalf("%s: retargeted chip %v, new chip %v", label, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: retargeted chip reports\n%+v\nnew chip\n%+v", label, got, want)
			}
			if diff := chipDiff(ch, fresh); diff != "" {
				t.Fatalf("%s: after the run: %s", label, diff)
			}
		}
	}
	if err := ch.Retarget(&arch.Config{}); err == nil {
		t.Fatal("Retarget accepted an invalid configuration")
	}
}

// chipDiff names the first difference between a and b in the configuration,
// anything NewChip sizes or derives from it, the mesh, the cores' programs,
// registers and stats, or what any memory reads as — an undeclared macro
// group and local memory in its hole read as zeros, to the group's size and
// the logical size — or a memory backed past that size; "" when there is
// none.
func chipDiff(a, b *Chip) string {
	switch {
	case *a.cfg != *b.cfg:
		return "configurations differ"
	case a.lanesCap != b.lanesCap || a.activeLanes != b.activeLanes || a.payloadBound != b.payloadBound:
		return fmt.Sprintf("lanes %d/%d and payload bound %d vs %d/%d and %d",
			a.lanesCap, a.activeLanes, a.payloadBound, b.lanesCap, b.activeLanes, b.payloadBound)
	case !reflect.DeepEqual(a.mesh, b.mesh):
		return "meshes differ"
	case len(a.global) != len(b.global) || len(a.cores) != len(b.cores):
		return fmt.Sprintf("%d lanes and %d cores vs %d and %d", len(a.global), len(a.cores), len(b.global), len(b.cores))
	}
	for l := range a.global {
		if !bytes.Equal(a.global[l], b.global[l]) {
			return fmt.Sprintf("lane %d: global memory differs (%d vs %d bytes)", l, len(a.global[l]), len(b.global[l]))
		}
	}
	for i, ca := range a.cores {
		cb := b.cores[i]
		shape := func(c *core) [16]any {
			return [...]any{c.id, c.frontPJ, c.latScalar, c.latMem, c.bw, c.vlanes, c.vecDepth, c.mvmOcc, c.mvmLat,
				c.groupChans, c.macroRows, c.localSize, len(c.dirty), len(c.images), len(c.code), len(c.prog)}
		}
		if sa, sb := shape(ca), shape(cb); sa != sb {
			return fmt.Sprintf("core %d: id, constants, record and program sizes %v vs %v", i, sa, sb)
		}
		if ca.pc != cb.pc || ca.regs != cb.regs || ca.sregs != cb.sregs || !reflect.DeepEqual(ca.stats, cb.stats) {
			return fmt.Sprintf("core %d: registers or stats differ", i)
		}
		for l := range ca.images {
			ia, ib := &ca.images[l], &cb.images[l]
			sa := [...]int{len(ia.mg), len(ia.cimAcc), len(ia.gather)}
			sb := [...]int{len(ib.mg), len(ib.cimAcc), len(ib.gather)}
			switch {
			case sa != sb:
				return fmt.Sprintf("core %d lane %d: groups, accumulator and gather sizes %v vs %v", i, l, sa, sb)
			case max(len(ia.local), len(ib.local)) > int(ca.localSize):
				return fmt.Sprintf("core %d lane %d: %d and %d local bytes backed of %d", i, l, len(ia.local), len(ib.local), ca.localSize)
			}
			n := int(ca.macroRows) * ca.groupChans
			for g := range ia.mg {
				ga, gb := ia.mg[g], ib.mg[g]
				if (len(ga) != 0 && len(ga) != n) || (len(gb) != 0 && len(gb) != n) || !sameReads(ga, gb) {
					return fmt.Sprintf("core %d lane %d: macro group %d differs (%d vs %d bytes backed of %d)", i, l, g, len(ga), len(gb), n)
				}
			}
			if !bytes.Equal(localReads(ca, l), localReads(cb, l)) || !slices.Equal(ia.cimAcc, ib.cimAcc) || !bytes.Equal(ia.gather, ib.gather) {
				return fmt.Sprintf("core %d lane %d: data plane differs", i, l)
			}
		}
	}
	return ""
}
