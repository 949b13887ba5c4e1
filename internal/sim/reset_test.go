package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// powerOnDiff scans the whole data plane — every allocated lane's local
// memory, macro groups, accumulator and gather buffer on every core — and
// the dirty records, and names the first thing that is not as NewChip leaves
// it; "" when the chip is in power-on state.
func powerOnDiff(ch *Chip) string {
	if ch.dirtyLanes != 0 {
		return fmt.Sprintf("chip records %d dirty lanes", ch.dirtyLanes)
	}
	for _, c := range ch.cores {
		for w, word := range c.dirty {
			if word != 0 {
				return fmt.Sprintf("core %d: dirty word %d = %#x", c.id, w, word)
			}
		}
		if c.mgDirty != 0 {
			return fmt.Sprintf("core %d: mgDirty = %#x", c.id, c.mgDirty)
		}
		for l := range c.images {
			im := &c.images[l]
			if i := firstNonzero(im.local); i >= 0 {
				return fmt.Sprintf("core %d lane %d: local[%d] = %#x", c.id, l, i, im.local[i])
			}
			for g, m := range im.mg {
				if i := firstNonzero(m); i >= 0 {
					return fmt.Sprintf("core %d lane %d: macro group %d byte %d = %#x", c.id, l, g, i, m[i])
				}
			}
			for i, v := range im.cimAcc {
				if v != 0 {
					return fmt.Sprintf("core %d lane %d: cimAcc[%d] = %d", c.id, l, i, v)
				}
			}
			if i := firstNonzero(im.gather); i >= 0 {
				return fmt.Sprintf("core %d lane %d: gather[%d] = %#x", c.id, l, i, im.gather[i])
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
		staged[l] = slices.Clone(ch.global[l][:laneMemBytes])
	}
	stats, err := ch.Run(context.Background())
	for l := 0; progs != nil && l < b; l++ {
		matchRef(t, ch, l, err, progs, staged[l])
	}
	return stats, err
}

// traced installs a no-op Trace hook, under which Run steps the predecoded
// pipeline one architectural instruction at a time (stepDecodedUnfused)
// instead of through fused runs.
func traced(ch *Chip) { ch.Trace = func(int, int, isa.Instruction, int64) {} }

// decodedModes are the two ways Run steps the predecoded pipeline.
var decodedModes = []struct {
	name string
	opts []ChipOption
}{
	{"fused", nil},
	{"unfused", []ChipOption{traced}},
}

// resetExecutors are the ways a program reaches a data plane: the predecoded
// handlers, fused and unfused, at up to 8 lanes.
var resetExecutors = []struct {
	name string
	opts []ChipOption
}{
	{"decoded/fused", nil},
	{"decoded/unfused", []ChipOption{traced}},
}

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
	prologue := asm(t, `
		SC_ADDI G20, G0, 77
		SC_LUI G21, 1          ; 65536, page 16
		SC_SB G20, G21, 0
		SC_ADDI G22, G0, 3
		SC_ADDI G23, G0, 1
		CIM_LOAD G22, G21, G23, G23
	`)
	var out []laneCase
	for _, tc := range runtimeErrorCases {
		out = append(out, laneCase{name: tc.name, progs: []Program{{Core: 0, Code: seq(prologue, asm(t, tc.src))}}})
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
	for _, lc := range laneCases() {
		for _, ex := range resetExecutors {
			t.Run(lc.name+"/"+ex.name, func(t *testing.T) {
				ch := lc.stage(t, &cfg, append([]ChipOption{WithLanes(8)}, ex.opts...)...)
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
					checkGolden(t, "lane/"+lc.name, stats, nil)
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
					ch := lc.stage(t, c.cfg, append([]ChipOption{WithLanes(3)}, ex.opts...)...)
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
				ch, err := NewChip(&cfg, append([]ChipOption{WithLanes(2)}, ex.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				ch.EnsureGlobal(laneMemBytes)
				// An illegal encoding already fails to load on the predecoded
				// pipeline; the chip it leaves behind must be as clean.
				for _, p := range lc.progs {
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
	// cores: the loops are abandoned wherever they were.
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
			ch, err := NewChip(&cfg, append([]ChipOption{WithLanes(4)}, m.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			ch.EnsureGlobal(laneMemBytes)
			for core := 0; core < 4; core++ {
				load(t, ch, core, loop)
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
		for _, addr := range []uint32{0, 1<<dirtyShift - 3, 2 << dirtyShift, mem - 40, mem - 1, mem, mem + 9} {
			f.Add(path, addr, uint16(40), int8(1), path+uint8(addr))
			f.Add(path+7, addr, uint16(599), int8(-2), uint8(addr))
		}
	}
	f.Fuzz(func(t *testing.T, path uint8, addr uint32, size uint16, stride int8, mode uint8) {
		// A little past the end of memory, so that some windows fault.
		a, n := int32(addr%(mem+64)), int32(size%600)
		opts, lanes := []ChipOption{WithLanes(4)}, 1+int(mode&3)
		if mode&4 != 0 {
			opts = append(opts, traced)
		}
		ch, err := NewChip(&cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ch.EnsureGlobal(laneMemBytes)
		progs := fuzzResetProgram(path, a, n, int32(stride)%4, path >= 7)
		for _, p := range progs {
			load(t, ch, p.Core, p.Code)
		}
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
	cases := laneCases()
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
