package sim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
)

// laneCase is one hand-assembled program of the lane differential. Every
// case reads a lane's 64 input bytes from global[0:64] (plus lane-uniform
// data at global[128:], when it has any) and leaves its result in
// global[256:256+outSize]; no case loads lane-varying data into a register,
// so control flow stays lane-uniform and no lane may diverge.
type laneCase struct {
	name    string
	progs   []Program
	uniform []byte // staged at global[128:] in every lane
	outSize int
}

const (
	laneIn       = 0   // global offset of a lane's input
	laneUniform  = 128 // global offset of lane-uniform data
	laneOut      = 256 // global offset of a lane's result
	laneMemBytes = 768 // global bytes the cases need
)

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

func laneCases() []laneCase {
	weights, halt, quant := laneWeights(), spinHalt(), quant8()

	return []laneCase{
		{
			// 32 input bytes copied in, doubled with a SIMD add, copied out.
			name: "memcpy+vec",
			progs: []Program{{Core: 0, Code: seq(
				copyIn(0, laneIn, 32),
				isa.LI(1, 0), isa.LI(3, 32), isa.LI(5, 64),
				one(isa.Vec(isa.VFnAdd8, 5, 1, 1, 3)),
				copyOut(laneOut, 64, 32),
				halt,
			)}},
			outSize: 32,
		},
		{
			// Core 0 forwards its lane-varying input to core 1, which
			// doubles it and writes it out: the strided message payload.
			name: "send/recv",
			progs: []Program{
				{Core: 0, Code: seq(
					copyIn(0, laneIn, 32),
					isa.LI(1, 0), isa.LI(2, 32), isa.LI(3, 1),
					one(isa.Send(1, 2, 3, 7)),
					halt,
				)},
				{Core: 1, Code: seq(
					isa.LI(1, 64), isa.LI(2, 32), isa.LI(3, 0),
					one(isa.Recv(1, 2, 3, 7)),
					isa.LI(5, 128),
					one(isa.Vec(isa.VFnAdd8, 5, 1, 1, 2)),
					copyOut(laneOut, 128, 32),
					halt,
				)},
			},
			outSize: 32,
		},
		{
			// Every lane loads the same weights.
			name:    "cim_load uniform weights",
			uniform: weights,
			progs: []Program{{Core: 0, Code: seq(
				copyIn(0, laneIn, 16), copyIn(512, laneUniform, 128), quant,
				loadWeights(512, 16),
				mvm(0, 16, 1024, isa.MVMFlagWriteback|isa.MVMFlagRelu),
				copyOut(laneOut, 1024, 8),
				halt,
			)}},
			outSize: 8,
		},
		{
			// Each lane loads 4x8 weights out of its own input bytes, so
			// every lane must multiply against its own copy of the group.
			name: "cim_load lane-varying weights",
			progs: []Program{{Core: 0, Code: seq(
				copyIn(0, laneIn, 64), setSReg(isa.SRegOutChans, 8),
				loadWeights(0, 4),
				mvm(32, 4, 1024, isa.MVMFlagWriteRaw),
				copyOut(laneOut, 1024, 32),
				halt,
			)}},
			outSize: 32,
		},
		{
			// A two-segment gather (local[0:8] and local[24:32]) written back
			// raw, then accumulated onto itself and written back requantized.
			name:    "gather mvm raw+requant",
			uniform: weights,
			progs: []Program{{Core: 0, Code: seq(
				copyIn(0, laneIn, 64), copyIn(512, laneUniform, 128), quant,
				loadWeights(512, 16),
				setSReg(isa.SRegSegCount, 2), setSReg(isa.SRegSegStride, 24),
				mvm(0, 16, 1024, isa.MVMFlagWriteRaw),
				mvm(0, 16, 1056, isa.MVMFlagAccumulate|isa.MVMFlagWriteback),
				copyOut(laneOut, 1024, 40),
				halt,
			)}},
			outSize: 40,
		},
		{
			// 15 rows, then 9 rows from an odd address accumulated on top:
			// the nonzero count is odd in some lanes and even in others, so
			// the row-pair kernel's unpaired last row is lane-varying.
			name:    "mvm odd nonzero count",
			uniform: weights,
			progs: []Program{{Core: 0, Code: seq(
				copyIn(0, laneIn, 16), copyIn(512, laneUniform, 128), quant,
				loadWeights(512, 16),
				mvm(0, 15, 1024, isa.MVMFlagWriteRaw),
				mvm(3, 9, 1056, isa.MVMFlagAccumulate|isa.MVMFlagWriteback),
				copyOut(laneOut, 1024, 40),
				halt,
			)}},
			outSize: 40,
		},
		{
			// 27 rows — less than one 32-row chunk of the kernel's scan, so
			// the mask is all tail pieces (16 + 8 + 2 + 1) — gathered from
			// three 9-byte segments 16 bytes apart.
			name:    "short segmented mvm",
			uniform: weights,
			progs: []Program{{Core: 0, Code: seq(
				copyIn(0, laneIn, 64), copyIn(512, laneUniform, 128), quant,
				loadWeights(512, 16), setSReg(isa.SRegLoadRow, 16), loadWeights(552, 11),
				setSReg(isa.SRegSegCount, 3), setSReg(isa.SRegSegStride, 16),
				mvm(0, 27, 1024, isa.MVMFlagWriteRaw),
				mvm(0, 27, 1056, isa.MVMFlagAccumulate|isa.MVMFlagWriteback|isa.MVMFlagRelu),
				copyOut(laneOut, 1024, 40),
				halt,
			)}},
			outSize: 40,
		},
		{
			// 5 of the group's channels written back raw, requantized and
			// requantized with ReLU, each into a window pre-filled with 0x55
			// so a store past the fifth channel shows.
			name:    "mvm writeback 5 channels",
			uniform: weights,
			progs: []Program{{Core: 0, Code: seq(
				copyIn(0, laneIn, 16), copyIn(512, laneUniform, 128), quant, setSReg(isa.SRegOutChans, 5),
				loadWeights(512, 16),
				isa.LI(1, 1024), isa.LI(2, 48), one(isa.VFill(1, 2, 0x55)),
				mvm(0, 16, 1024, isa.MVMFlagWriteRaw),
				mvm(0, 16, 1056, isa.MVMFlagWriteback),
				mvm(0, 16, 1064, isa.MVMFlagWriteback|isa.MVMFlagRelu),
				copyOut(laneOut, 1024, 48),
				halt,
			)}},
			outSize: 48,
		},
		{
			// Every funct with a whole-slice kernel, at unit stride on
			// lane-varying bytes: a multiply-accumulate chain requantized and
			// clamped in place, then one result window per remaining funct.
			name: "bulk vector kernels",
			progs: []Program{{Core: 0, Code: seq(
				copyIn(0, laneIn, 64), quant,
				setSReg(isa.SRegQMulA, 3), setSReg(isa.SRegQMulB, -5),
				setSReg(isa.SRegActInScale, int32(math.Float32bits(0.0625))),
				setSReg(isa.SRegActOutScale, int32(math.Float32bits(0.03125))),
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
				copyOut(laneOut, 512, 512),
				halt,
			)}},
			outSize: 512,
		},
		{
			// A constant fill in the middle of lane-varying bytes.
			name: "vfill",
			progs: []Program{{Core: 0, Code: seq(
				copyIn(0, laneIn, 32),
				isa.LI(1, 8), isa.LI(2, 16),
				one(isa.VFill(1, 2, -3)),
				copyOut(laneOut, 0, 32),
				halt,
			)}},
			outSize: 32,
		},
		{
			// A lane-uniform word stored to global and local memory and
			// loaded back into registers: every lane holds the same value,
			// so the loads must not flag divergence. The reloaded values are
			// stored next to 16 lane-varying bytes.
			name: "scalar store+load",
			progs: []Program{{Core: 0, Code: seq(
				copyIn(0, laneIn, 16), copyOut(laneOut, 0, 16),
				isa.LI(4, GlobalBase+laneOut), isa.LI(5, 0x01234567), isa.LI(6, 200),
				one(
					isa.Store(5, 4, 100), // global scratch
					isa.Load(7, 4, 100),
					isa.Store(7, 4, 16),
					isa.Store(5, 6, 0), // local scratch
					isa.Load(8, 6, 0),
					isa.Store(8, 4, 20),
					isa.Instruction{Op: isa.OpScSB, RT: 7, RS: 4, Imm: 24},
					isa.Instruction{Op: isa.OpScLB, RT: 9, RS: 4, Imm: 24},
					isa.Store(9, 4, 28),
				),
				halt,
			)}},
			outSize: 32,
		},
	}
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
// what it computed to the reference executor, and returns its output bytes
// and report.
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

// TestLaneDataEquivalence is the sim-level lane differential. For each
// hand-assembled case — together they drive every handler with a per-lane
// data effect, both MAC kernels and the strided message payload — three
// inputs run as one 3-lane batch on a 4-lane chip, and every lane must equal
// a fresh one-lane chip on the same input, byte for byte and cycle for cycle
// (the full report: energy, per-core stats, NoC traffic), whether the
// predecoded pipeline steps fused or unfused; each one-lane run equals the
// reference executor's memory and the golden row "lane/"+name. A pooled
// rerun at shrunk occupancy with swapped inputs must reproduce them again.
func TestLaneDataEquivalence(t *testing.T) {
	cfg := testConfig()
	inputs := [][]byte{laneInput(0), laneInput(1), laneInput(2)}
	for _, lc := range laneCases() {
		for _, m := range decodedModes {
			t.Run(lc.name+"/"+m.name, func(t *testing.T) {
				lc := lc.in(m)
				want := make([][]byte, len(inputs))
				var wantStats *Stats
				for l, in := range inputs {
					out, stats := lc.runAlone(t, &cfg, in)
					checkGolden(t, "lane/"+lc.name, stats, nil)
					if l > 0 && !reflect.DeepEqual(stats, wantStats) {
						t.Fatalf("input %d: one-lane timing depends on the data; the case is not lane-uniform", l)
					}
					want[l], wantStats = out, stats
				}

				// Spare capacity covers occupancy < capacity.
				ch := lc.stage(t, &cfg, WithLanes(4))
				lc.runLanes(t, ch, inputs, want, wantStats)

				// Pooled rerun: no stale lane state may survive Reset.
				ch.Reset()
				if err := ch.CheckPayloadPool(); err != nil {
					t.Fatal(err)
				}
				lc.runLanes(t, ch, [][]byte{inputs[2], inputs[1]}, [][]byte{want[2], want[1]}, wantStats)
			})
		}
	}
}

// TestLaneDivergenceDetection loads a byte that differs between lanes into
// a register — the one operation that can break the shared-register
// invariant — and requires the run to flag the divergent lane while lane
// 0's results stay exactly those of a serial run.
func TestLaneDivergenceDetection(t *testing.T) {
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 1
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, GlobalBase)...)
	prog = append(prog,
		isa.Instruction{Op: isa.OpScLB, RT: 2, RS: 1, Imm: 0},  // r2 = global[0], lane-varying
		isa.Instruction{Op: isa.OpScSB, RT: 2, RS: 1, Imm: 16}, // global[16] = r2
		isa.Halt(),
	)
	ch, err := NewChip(&cfg, WithLanes(2))
	if err != nil {
		t.Fatal(err)
	}
	ch.EnsureGlobal(64)
	if err := ch.LoadProgram(Program{Core: 0, Code: prog}); err != nil {
		t.Fatal(err)
	}
	if err := ch.SetLanes(2); err != nil {
		t.Fatal(err)
	}
	if err := ch.InitGlobal(GlobalSegment{Addr: 0, Data: []byte{5}}); err != nil {
		t.Fatal(err)
	}
	if err := ch.InitGlobalLane(1, GlobalSegment{Addr: 0, Data: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	stats, err := ch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	diverged := ch.DivergedLanes()
	if len(diverged) != 1 || diverged[0] != 1 {
		t.Fatalf("diverged lanes %v, want [1]", diverged)
	}
	if stats.DivergedLanes != 1 {
		t.Fatalf("stats.DivergedLanes = %d, want 1", stats.DivergedLanes)
	}
	out, err := ch.ReadGlobal(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 5 {
		t.Errorf("lane 0 output %d corrupted by divergence handling, want 5", out[0])
	}
}

// TestLaneSharedMacroGroups holds the lane-shared macro groups to the ISA on
// an 8-lane chip: a CIM_LOAD every lane agrees on leaves one group buffer for
// all lanes; a tile from lane-written local memory gives only the lanes whose
// bytes differ from lane 0's a buffer of their own, which keeps the earlier
// uniform tile, and a later uniform tile lands in it too; every lane's
// memory, the MVM output included, matches the reference executor. Reset
// clears the groups and every lane shares lane 0's again, and a one-lane run
// afterwards gives lanes 1-7 no buffer of their own.
func TestLaneSharedMacroGroups(t *testing.T) {
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 1
	lc := laneCase{
		progs: []Program{{Core: 0, Code: seq(
			copyIn(64, laneUniform, 128),
			loadWeights(64, 16),                        // group 0: 16x8 uniform weights
			isa.LI(4, 1), one(isa.CimLoad(4, 1, 2, 3)), // group 1: the same
			copyIn(0, laneIn, 64),
			setSReg(isa.SRegLoadRow, 4), setSReg(isa.SRegLoadChan, 2),
			isa.LI(1, 32), isa.LI(2, 2), isa.LI(3, 4), one(isa.CimLoad(0, 1, 2, 3)), // 2x4 lane bytes at (4, 2)
			setSReg(isa.SRegLoadRow, 8),
			isa.LI(1, 64), one(isa.CimLoad(0, 1, 2, 3)), // 2x4 uniform bytes at (8, 2)
			quant8(),
			mvm(0, 16, 192, isa.MVMFlagWriteback),
			copyOut(laneOut, 192, 8),
			spinHalt(),
		)}},
		uniform: laneWeights(),
	}
	// Even lanes' tile bytes (input bytes 32-39) are lane 0's, odd lanes'
	// their own.
	inputs := laneInputs(8)
	for l := 2; l < len(inputs); l += 2 {
		copy(inputs[l][32:40], inputs[0][32:40])
	}
	inTile := func(i, gc int) bool { r, k := i/gc, i%gc; return r >= 4 && r < 6 && k >= 2 && k < 6 }

	for _, m := range decodedModes {
		t.Run(m.name, func(t *testing.T) {
			lc := lc.in(m)
			ch := lc.stage(t, &cfg, WithLanes(8))
			c := ch.cores[0]
			run := func(b int) {
				t.Helper()
				if err := ch.SetLanes(b); err != nil {
					t.Fatal(err)
				}
				staged := make([][]byte, b)
				for l := range staged {
					if err := ch.InitGlobalLane(l, GlobalSegment{Addr: laneIn, Data: inputs[l]}); err != nil {
						t.Fatal(err)
					}
					staged[l] = slices.Clone(readsAs(ch.global[l], laneMemBytes))
				}
				_, err := ch.Run(context.Background())
				for l := range staged {
					matchRef(t, ch, l, err, lc.progs, staged[l])
				}
			}
			allShare := func(when string) {
				t.Helper()
				for l := 1; l < len(c.images); l++ {
					for g, w := range c.images[l].mg {
						if !sameBuffer(w, c.mg[g]) {
							t.Fatalf("%s: lane %d holds a buffer of its own for group %d", when, l, g)
						}
					}
				}
			}

			run(8)
			if c.mg[0] == nil || c.mg[1] == nil {
				t.Fatal("groups 0 and 1 not backed in lane 0")
			}
			for l := 1; l < 8; l++ {
				w := c.images[l].mg[0]
				if !sameBuffer(c.images[l].mg[1], c.mg[1]) {
					t.Errorf("lane %d: uniformly loaded group 1 has a buffer of its own", l)
				}
				if private := !sameBuffer(w, c.mg[0]); private != (l%2 == 1) {
					t.Errorf("lane %d: group 0 private = %v, want %v", l, private, l%2 == 1)
					continue
				}
				for i := range w {
					if !inTile(i, c.groupChans) && w[i] != c.mg[0][i] {
						t.Errorf("lane %d: group 0 byte %d = %#x outside the lane's tile, lane 0's %#x", l, i, w[i], c.mg[0][i])
						break
					}
				}
			}

			ch.Reset()
			assertPowerOn(t, ch, "after Reset")
			allShare("after Reset")
			run(1)
			allShare("after a one-lane run")
		})
	}
}

// TestLaneStepAllocs is the 4-lane twin of TestStepDecodedZeroAllocs:
// once warm, stepping the full 4-lane data plane through the vector,
// transfer and CIM units must not allocate — every per-lane slice is a view
// of state preallocated at chip construction.
func TestLaneStepAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 1
	ch, err := NewChip(&cfg, WithLanes(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.SetLanes(4); err != nil {
		t.Fatal(err)
	}
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)
	prog = append(prog, isa.LI(2, 64)...)
	prog = append(prog, isa.LI(3, 128)...)
	prog = append(prog, isa.LI(4, 32)...)
	prog = append(prog, isa.LI(5, 0)...)
	prog = append(prog, isa.LI(6, 8)...)
	prog = append(prog, isa.LI(7, 8)...)
	prog = append(prog, isa.LI(8, int32(math.Float32bits(0.0625)))...) // both activation scales
	prog = append(prog, isa.MTS(isa.SRegActInScale, 8), isa.MTS(isa.SRegActOutScale, 8))
	loop := len(prog)
	prog = append(prog,
		isa.Vec(isa.VFnAdd8, 3, 1, 2, 4),
		isa.Vec(isa.VFnSilu8, 3, 1, 0, 4), // table lookup, built during warm-up
		isa.Vec(isa.VFnMac8, 3, 1, 2, 4),  // AVX2 kernel where there is one
		isa.MemCpy(3, 1, 4, 0),
		isa.VFill(2, 4, 3),
		isa.CimLoad(5, 1, 6, 7),
		isa.CimMVM(1, 6, 3, isa.MVMFlags(0, isa.MVMFlagWriteback)),
	)
	prog = append(prog, isa.Jmp(int32(loop-len(prog)-1)))
	if err := ch.LoadProgram(Program{Core: 0, Code: prog}); err != nil {
		t.Fatal(err)
	}
	c := ch.cores[0]
	step := func() {
		st, err := c.stepDecoded()
		if err != nil || st != stepOK {
			t.Fatalf("step failed: status %v, err %v", st, err)
		}
	}
	for i := 0; i < 256; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(20000, step); avg != 0 {
		t.Errorf("steady-state lane step allocates %.4f objects/op, want 0", avg)
	}
}

// TestAccessorBounds: every host-side memory accessor rejects a span that
// leaves its memory — negative sizes (which used to slip past the
// addr+size check into a panicking make) and overflowing ends included —
// and a lane that is not allocated.
func TestAccessorBounds(t *testing.T) {
	cfg := testConfig()
	ch, err := NewChip(&cfg, WithLanes(2))
	if err != nil {
		t.Fatal(err)
	}
	const maxInt = int(^uint(0) >> 1)
	errNotASegment := errors.New("span not expressible as a GlobalSegment")
	accessors := []struct {
		name string
		n    int // size of the memory accessed
		do   func(addr, size int) error
	}{
		{"ReadGlobal", cfg.Chip.GlobalMemBytes, func(addr, size int) error {
			_, err := ch.ReadGlobal(addr, size)
			return err
		}},
		{"ReadGlobalLane", cfg.Chip.GlobalMemBytes, func(addr, size int) error {
			_, err := ch.ReadGlobalLane(1, addr, size)
			return err
		}},
		{"ReadLocal", cfg.Core.LocalMemBytes, func(addr, size int) error {
			_, err := ch.ReadLocal(0, addr, size)
			return err
		}},
		{"InitGlobalLane", cfg.Chip.GlobalMemBytes, func(addr, size int) error {
			if size < 0 || size > 64 {
				return errNotASegment // the size is len(Data)
			}
			return ch.InitGlobalLane(1, GlobalSegment{Addr: addr, Data: make([]byte, size)})
		}},
		{"InitGlobalLaneInt8", cfg.Chip.GlobalMemBytes, func(addr, size int) error {
			if size < 0 || size > 64 {
				return errNotASegment // the size is len(data)
			}
			return ch.InitGlobalLaneInt8(1, addr, make([]int8, size))
		}},
	}
	for _, a := range accessors {
		spans := []struct {
			name       string
			addr, size int
			ok         bool
		}{
			{"start", 0, 16, true},
			{"end", a.n - 16, 16, true},
			{"empty at end", a.n, 0, true},
			{"negative size", 0, -1, false},
			{"negative size cancelling addr", 8, -8, false},
			{"negative addr", -1, 1, false},
			{"one past end", a.n - 15, 16, false},
			{"addr past end", a.n + 1, 0, false},
			{"end overflows", maxInt, 16, false},
			{"size overflows", 16, maxInt, false},
		}
		for _, sp := range spans {
			err := a.do(sp.addr, sp.size)
			if err == errNotASegment {
				continue
			}
			if (err == nil) != sp.ok {
				t.Errorf("%s %s [%d, +%d): err = %v, want ok=%v", a.name, sp.name, sp.addr, sp.size, err, sp.ok)
			}
		}
	}
	for _, l := range []int{-1, 2} {
		if _, err := ch.ReadGlobalLane(l, 0, 1); err == nil {
			t.Errorf("ReadGlobalLane accepted lane %d of 2", l)
		}
		if err := ch.InitGlobalLane(l, GlobalSegment{Data: []byte{1}}); err == nil {
			t.Errorf("InitGlobalLane accepted lane %d of 2", l)
		}
		if err := ch.InitGlobalLaneInt8(l, 0, []int8{1}); err == nil {
			t.Errorf("InitGlobalLaneInt8 accepted lane %d of 2", l)
		}
	}
	// InitGlobalLaneInt8 writes the two's-complement bytes into its lane only.
	if err := ch.InitGlobalLaneInt8(1, 8, []int8{-128, -1, 0, 127}); err != nil {
		t.Fatal(err)
	}
	for l, want := range [][]byte{{0, 0, 0, 0, 0, 0}, {0, 0x80, 0xff, 0, 0x7f, 0}} {
		if got, _ := ch.ReadGlobalLane(l, 7, 6); !bytes.Equal(got, want) {
			t.Errorf("lane %d after InitGlobalLaneInt8 = %v, want %v", l, got, want)
		}
	}
}
