package sim

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
)

// The handlers issue an operation that names no local window through
// regIssue, hazardIssue's windowless form. The tests here hold the one to the
// other on the function itself, and the handlers to the golden table on
// generated scalar streams, from timing states no compiled program reaches (a
// busy control unit, a scalar unit free only later).

// scrambleTiming fills a core's timing plane from rng: a local time, and
// register-ready cycles, unit-free cycles and in-flight completions on both
// sides of it, the in-flight operations holding one to three windows of the
// first mem bytes of local memory that overlap each other.
func scrambleTiming(c *core, rng *rand.Rand, mem int32) {
	c.time = rng.Int63n(1000)
	around := func(spread int64) int64 { return max(0, c.time-spread/2+rng.Int63n(spread)) }
	spread := []int64{2, 40, 400}[rng.Intn(3)]
	for r := range c.regReady {
		c.regReady[r] = around(spread)
	}
	for u := range c.unitFree {
		c.unitFree[u] = around(spread)
		p := &c.pending[u]
		p.done = around(4 * spread)
		p.n = rng.Intn(len(p.ranges) + 1)
		for i := range p.ranges[:p.n] {
			lo := rng.Int31n(mem / 2)
			p.ranges[i] = memRange{lo, lo + 1 + rng.Int31n(mem/2)}
		}
	}
}

// TestRegIssueMatchesHazardIssue: from any timing state, for every unit and
// zero to four sources, regIssue returns the cycle hazardIssue returns with no
// ranges and charges the same stall, and neither touches the dirty record or
// the timing plane.
func TestRegIssueMatchesHazardIssue(t *testing.T) {
	cfg := testConfig()
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := ch.cores[0]
	var noStall, byReg, byUnit, pendingLater int
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		scrambleTiming(c, rng, c.localSize)
		for w := range c.dirty {
			c.dirty[w] = rng.Uint64()
		}
		c.stats.StallCycles = rng.Int63n(1000)
		for unit := isa.UnitScalar; unit <= isa.UnitControl; unit++ {
			for n := 0; n <= 4; n++ {
				srcs := make([]uint8, n)
				for i := range srcs {
					srcs[i] = uint8(rng.Intn(isa.NumGRegs))
				}
				before, ref := *c, *c
				ref.dirty = slices.Clone(c.dirty)
				got, want := c.regIssue(unit, srcs), ref.hazardIssue(unit, srcs, nil)
				if got != want || c.stats.StallCycles != ref.stats.StallCycles {
					t.Fatalf("seed %d unit %v srcs %v at t=%d: regIssue = %d (stall total %d), hazardIssue = %d (%d)",
						seed, unit, srcs, c.time, got, c.stats.StallCycles, want, ref.stats.StallCycles)
				}
				if !slices.Equal(c.dirty, ref.dirty) || !slices.Equal(ref.dirty, before.dirty) {
					t.Fatalf("seed %d: the dirty record moved", seed)
				}
				before.stats.StallCycles = c.stats.StallCycles
				if c.time != before.time || c.regReady != before.regReady || c.unitFree != before.unitFree ||
					c.pending != before.pending || c.stats != before.stats {
					t.Fatalf("seed %d: regIssue changed more than the stall count", seed)
				}
				ready := c.time
				for _, r := range srcs {
					ready = max(ready, c.regReady[r])
				}
				switch {
				case got == c.time:
					noStall++
				case c.unitFree[unit] > ready:
					byUnit++
				default:
					byReg++
				}
				for u := range c.pending {
					if c.pending[u].n > 0 && c.pending[u].done > got {
						pendingLater++
						break
					}
				}
			}
		}
	}
	if min(noStall, byReg, byUnit, pendingLater) < 100 {
		t.Errorf("thin coverage: %d issues without a stall, %d decided by a source, %d by the unit, %d with a later windowed completion in flight",
			noStall, byReg, byUnit, pendingLater)
	}
}

// A scalar stream is a generated one-core program: scalar ALU and special-
// register traffic between local and global loads and stores, forward branches
// and vector, copy and MVM operations that are still in flight when the
// scalars behind them issue.
const (
	streamMem    = 8 << 10 // local memory
	streamGlobal = 4 << 10 // global memory; scalar accesses use its upper half
	streamA      = 512     // local window A: vector and MVM inputs, the weights' source
	streamB      = 2048    // local window B: vector, copy and MVM destinations

	// G20-G24: the two windows, the global base, a length of 1-128 and the
	// MVM's 16 rows. G7 divides every SC_DIV / SC_REM and is zero in a
	// quarter of the streams.
	streamRegA, streamRegB, streamRegG, streamRegN, streamRegRows = 20, 21, 22, 23, 24

	streamDivisor = 7
)

// streamSRegs are the special registers a stream writes: the ones that
// change values, not operand windows (a stray segment count or vector stride
// would fault most programs at their first long operation).
var streamSRegs = []int{isa.SRegMGMask, isa.SRegQuantMul, isa.SRegQuantShift, isa.SRegCoreID,
	isa.SRegRowTiles, isa.SRegQMulA, isa.SRegQMulB, isa.SRegOutChans}

// streamMemOps[store][byte] is a scalar memory access.
var streamMemOps = [2][2]isa.Opcode{{isa.OpScLD, isa.OpScLB}, {isa.OpScST, isa.OpScSB}}

// scalarStream assembles a stream from choice bytes, four per operation; an
// exhausted input reads as zeros. G1-G6 are data registers (with G0, the
// destinations), G7 the divisor, G20-G24 hold addresses and lengths that only
// a value-preserving SC_ADDI rewrites, so memory operands stay in bounds
// unless an operation is one of the rare deliberate faults.
func scalarStream(data []byte) []isa.Instruction {
	rd := choices(data)
	next := rd.next
	code := seq(
		setSReg(isa.SRegOutChans, 8), setSReg(isa.SRegQuantMul, 3), setSReg(isa.SRegQuantShift, 4),
		copyIn(streamA, 0, 1024), loadWeights(streamA, 16),
	)
	for r := uint8(1); r < streamDivisor; r++ {
		code = append(code, isa.LI(r, int32(int16(next()|next()<<8))*257)...)
	}
	code = seq(code, isa.LI(streamDivisor, int32(int8(next()))%4),
		isa.LI(streamRegA, streamA), isa.LI(streamRegB, streamB), isa.LI(streamRegG, GlobalBase+streamGlobal/2),
		isa.LI(streamRegN, 1+int32(next())%128), isa.LI(streamRegRows, 16))

	src := func(b int) uint8 { return uint8(b % 8) } // G0-G7
	dst := func(b int) uint8 { return uint8(b % 7) } // G0-G6
	for ops := min(len(rd)/4, 256); ops > 0; ops-- {
		k, a, b, c := next(), next(), next(), next()
		var in isa.Instruction
		switch k % 16 {
		case 0, 1, 2, 3, 4, 5, 6, 7, 8:
			in = scalarOp([]int{0, 0, 0, 1, 1, 1, 2, 3, 4}[k%16], a, b, c, dst, src, streamSRegs)
		case 9, 10: // local load or store, word or byte, inside or beside windows A and B
			store := k%16 - 9
			in = isa.Instruction{Op: streamMemOps[store][a&1], RT: [2]uint8{dst(a >> 2), src(a >> 2)}[store],
				RS: uint8(streamRegA + a>>1&1), Imm: int32(b|c<<8) % 600}
		case 11: // the same against global memory; out of bounds once in 256
			store := a >> 1 & 1
			in = isa.Instruction{Op: streamMemOps[store][a&1], RT: [2]uint8{dst(a >> 2), src(a >> 2)}[store],
				RS: streamRegG, Imm: int32(b)}
			if c == 0xff {
				in.Imm = streamGlobal
			}
		case 12: // forward, by one to six: the target may be inside a fused run
			in = isa.Branch(isa.OpBEQ+isa.Opcode(a%4), src(b), src(b>>3), int32(c%6))
		case 13: // an operation that outlives the scalars behind it
			switch a % 4 {
			case 0:
				fn := uint8(b) % (isa.VFnRMax8 + 1)
				rt := uint8(streamRegA)
				if _, sizeB, _, _ := isa.VecElemSizes(fn); sizeB == 0 {
					rt = src(c) // a scalar operand, or unused
				}
				in = isa.Vec(fn, streamRegB, streamRegA, rt, streamRegN)
			case 1:
				in = isa.MemCpy(streamRegB, streamRegA, streamRegN, int32(c))
			case 2:
				in = isa.MemCpy(streamRegB, streamRegG, streamRegN, int32(c))
			case 3:
				flags := [2]uint16{isa.MVMFlagWriteback, isa.MVMFlagWriteRaw}[b>>4&1] | uint16(b)&(isa.MVMFlagAccumulate|isa.MVMFlagRelu)
				in = isa.CimMVM(streamRegA, streamRegRows, streamRegB, isa.MVMFlags(0, flags))
			}
		case 14: // an address register becomes ready later, its value unchanged
			r := uint8(streamRegA + a%4)
			in = isa.ALUI(isa.FnAdd, r, r, 0)
		case 15:
			in = isa.Nop()
			if a == 0 { // a local access below address zero
				in = isa.Load(dst(b), isa.GZero, -4)
			}
		}
		code = append(code, in)
	}
	// Six landing slots for the last branches, then the spin that lets the
	// operations in flight finish before HALT.
	for i := 0; i < 6; i++ {
		code = append(code, isa.ALUI(isa.FnAdd, 1, 1, 1))
	}
	return seq(code, spinHalt())
}

// choices hands out the bytes that steer a generated program; an exhausted
// input reads as zeros.
type choices []byte

func (ch *choices) next() int {
	if len(*ch) == 0 {
		return 0
	}
	b := (*ch)[0]
	*ch = (*ch)[1:]
	return int(b)
}

// scalarOp is a generated scalar operation of one of five kinds — ALU, ALUI,
// LUI, MTS, MFS — from choice bytes a, b and c. dst and src map a byte to a
// register the operation may write or read, sregs are the special registers
// an MTS may write, and an SC_DIV or SC_REM divides by streamDivisor.
func scalarOp(kind, a, b, c int, dst, src func(int) uint8, sregs []int) isa.Instruction {
	switch kind {
	case 0:
		fn, rt := uint8(a)%(isa.FnMax+1), src(c)
		if fn == isa.FnDiv || fn == isa.FnRem {
			rt = streamDivisor
		}
		return isa.ALU(fn, dst(b), src(b>>3), rt)
	case 1: // an immediate divisor is zero once in 256
		return isa.ALUI(uint8(a)%(isa.FnMax+1), dst(b), src(b>>3), int32(c)-128)
	case 2:
		return isa.LUI(dst(a), int32(int16(b|c<<8)))
	case 3:
		return isa.MTS(sregs[a%len(sregs)], src(b))
	}
	return isa.Instruction{Op: isa.OpScMFS, RT: dst(a), Imm: int32(b % isa.NumSRegs)}
}

// streamOutcome is everything a finished or faulted stream leaves behind.
type streamOutcome struct {
	err           string
	pc            int
	time          int64
	regs          [isa.NumGRegs]int32
	sregs         [isa.NumSRegs]int32
	stats         []uint64 // every CoreStats field, floats by their bits
	local, global []byte
}

// flattenStats appends every number in v, a CoreStats, as 64 bits.
func flattenStats(out []uint64, v reflect.Value) []uint64 {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = flattenStats(out, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = flattenStats(out, v.Index(i))
		}
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		out = append(out, uint64(v.Int()))
	default:
		panic("CoreStats grew a field of kind " + v.Kind().String())
	}
	return out
}

// runStream runs the stream data describes fused and unfused, from power-on
// state or — a bit of data's first eight bytes decides — from a timing state
// scrambled alike on each, holds the fused run's data to the reference
// executor and the unfused outcome to the fused one, and returns the fused
// outcome (its error text "" when it halted).
func runStream(t *testing.T, cfg *arch.Config, data []byte) *streamOutcome {
	t.Helper()
	code := scalarStream(data)
	global := make([]byte, streamGlobal)
	rand.New(rand.NewSource(int64(len(data)))).Read(global)
	var seed int64
	for _, b := range data[:min(len(data), 8)] {
		seed = seed<<8 | int64(b)
	}
	outcomes := make([]streamOutcome, len(decodedModes))
	for i, ex := range decodedModes {
		ch, err := NewChip(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex.load(t, ch, Program{Code: code})
		if err := ch.InitGlobal(GlobalSegment{Addr: 0, Data: global}); err != nil {
			t.Fatal(err)
		}
		c := ch.cores[0]
		if seed&1 != 0 {
			scrambleTiming(c, rand.New(rand.NewSource(seed)), streamMem)
		}
		o := &outcomes[i]
		_, err = ch.Run(context.Background())
		if err != nil {
			o.err = err.Error()
		}
		if i == 0 {
			matchRef(t, ch, 0, err, []Program{{Code: code}}, global)
		}
		o.pc, o.time, o.regs, o.sregs = c.pc, c.time, c.regs, c.sregs
		o.stats = flattenStats(nil, reflect.ValueOf(c.stats))
		o.local, o.global = localReads(c, 0), ch.global[0]
	}
	want := &outcomes[0]
	for i, got := range outcomes[1:] {
		name := decodedModes[i+1].name
		if got.err != want.err || got.pc != want.pc || got.time != want.time {
			t.Errorf("%s ended at pc %d t=%d with error %q, fused at pc %d t=%d with %q", name, got.pc, got.time, got.err, want.pc, want.time, want.err)
		}
		if got.regs != want.regs || got.sregs != want.sregs {
			t.Errorf("%s registers differ from fused:\n%v %v\n%v %v", name, got.regs, got.sregs, want.regs, want.sregs)
		}
		if !slices.Equal(got.stats, want.stats) {
			t.Errorf("%s core stats differ from fused:\n%v\n%v", name, got.stats, want.stats)
		}
		if !bytes.Equal(got.local, want.local) || !bytes.Equal(got.global, want.global) {
			t.Errorf("%s memory differs from fused", name)
		}
	}
	if t.Failed() {
		t.Fatalf("stream of %d bytes, %d instructions:\n%s", len(data), len(code), isa.DisassembleProgram(code))
	}
	return want
}

func streamConfig() arch.Config {
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 1
	cfg.Chip.GlobalMemBytes = streamGlobal // a chip per executor per stream: keep it small
	cfg.Core.LocalMemBytes = streamMem
	cfg.Core.NumMacroGroups = 2
	return cfg
}

// streamBytes is the choice bytes of seeded random stream number i.
func streamBytes(i int) []byte {
	rng := rand.New(rand.NewSource(int64(i)))
	data := make([]byte, 24+rng.Intn(1000))
	rng.Read(data)
	return data
}

// TestScalarStreamDifferential: on generated scalar streams the fused
// handlers and the same handlers stepped one instruction at a time end with
// the same registers, special registers, memory, core statistics and — when
// the stream faults — the same error at the same pc and cycle; the registers
// and memory are the reference executor's, and the pc, cycle, registers,
// statistics and error hash to the golden row. Half the streams start from a
// scrambled timing state, which is how the table pins timing no program
// reaches from power-on.
func TestScalarStreamDifferential(t *testing.T) {
	cfg := streamConfig()
	kinds := map[string]int{}
	for i := 0; i < 600; i++ {
		o := runStream(t, &cfg, streamBytes(i))
		checkGoldenRow(t, fmt.Sprintf("stream/%03d", i),
			goldenRow{Digest: digest([]any{o.err, o.pc, o.time, o.regs, o.sregs, o.stats})})
		fault := o.err
		kind := "halted"
		for _, known := range []string{"division by zero", "remainder by zero", "local access", "global access"} {
			if strings.Contains(fault, known) {
				kind = known
			}
		}
		if kind == "halted" && fault != "" {
			t.Fatalf("stream %d: unexpected fault %s", i, fault)
		}
		kinds[kind]++
	}
	t.Logf("600 streams: %v", kinds)
	if kinds["halted"] < 100 || kinds["division by zero"]+kinds["remainder by zero"] < 20 ||
		kinds["local access"] == 0 || kinds["global access"] == 0 {
		t.Errorf("thin coverage: %v", kinds)
	}
}

// FuzzScalarStream is the same differential on the choice bytes the fuzzer
// finds.
func FuzzScalarStream(f *testing.F) {
	for i := 0; i < 16; i++ {
		f.Add(streamBytes(i))
	}
	cfg := streamConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		runStream(t, &cfg, data)
	})
}
