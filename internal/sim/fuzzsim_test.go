package sim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cimflow/internal/isa"
)

// FuzzSimDifferential generates small four-core programs — scalar ALU and
// special-register traffic, local and global loads and stores, MEM_CPY,
// VFILL, every VEC_* funct at strides -3..3 over overlapping windows,
// CIM_LOAD and CIM_MVM, forward branches, counted loops, SEND/RECV rings and
// pairs, barriers, over local windows at and across the edges of the pages
// they touch — and runs each on a chip that maps the whole core, then loaded
// with the map a compiler would declare for what that run touched (simMaps),
// whose hole the windows border: fused, unfused and as an eight-lane batch
// whose every lane has global input of its own. Every run must match the
// reference executor on every register and every byte of every memory (a
// lane that diverged is exempt), report a Stats that passes Check and is the
// same in all four, leave its mailboxes empty, and go back to power-on state
// on Reset with its payload pool intact. Plain go test runs the 240 seeds.
func FuzzSimDifferential(f *testing.F) {
	shapes := map[string]int{}
	for i := 0; i < 240; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		data := make([]byte, 400+rng.Intn(1200))
		rng.Read(data)
		data[0] = byte(i) // the ending: a fault for i%8 == 0, a deadlock for 1
		_, kinds := simProgram(data)
		for _, k := range kinds {
			shapes[k]++
		}
		f.Add(data)
	}
	if shapes["fault"] == 0 || shapes["deadlock"] == 0 || shapes["ring"] == 0 || shapes["barrier"] == 0 {
		f.Fatalf("thin seed corpus: %v", shapes)
	}
	f.Fuzz(runSimDifferential)
}

// Each core has local windows A, B, D and A plus 0..7 in G20-G23 (at stride
// ±3 an operand of 64 words stays clear of the scalar scratch below 256),
// lengths in G24 (vector, copy, fill, message) and G25 (MVM rows), and a
// global window of simWindow bytes at G26: lane input, then from G27 on a
// lane-uniform half.
const simWindow = 512

// simLocalBytes is a generated program's local memory: eight pages.
const simLocalBytes = 32 << 10

// simLayouts are the windows A, B and D, picked by bits 3-4 of the first
// choice byte. In all but the first layout A and B lie in the first page and
// the last, so that the declared map's hole lies between them, and D
// straddles its low edge in the second layout and its high edge in the
// third; in the fourth the hole lies on either side of A in the middle.
var simLayouts = [4][3]int32{
	{1024, 3072, 5120},
	{1024, simLocalBytes - 3072, 1<<dirtyShift - 100},
	{1024, simLocalBytes - 3072, simLocalBytes - 1<<dirtyShift - 100},
	{simLocalBytes / 2, 1024, simLocalBytes - 3072},
}

var simLengths = []int32{0, 1, 7, 8, 9, 17, 31, 32, 33, 63, 64, 40, 5, 0, 3, 0}

// simSRegs are the special registers a generated program writes by MTS: the
// ones that change values, not operand windows.
var simSRegs = append(streamSRegs[:len(streamSRegs):len(streamSRegs)], isa.SRegActInScale, isa.SRegActOutScale)

// simGen turns choice bytes into instructions.
type simGen struct{ choices }

// simProgram assembles the programs data describes and names their shapes:
// "ring", "pair" and "barrier" phases, and a "fault" or "deadlock" ending.
func simProgram(data []byte) ([]Program, []string) {
	g := &simGen{choices(data)}
	first := g.next()
	ending, win := first%8, simLayouts[first/8%4]
	code := make([][]isa.Instruction, 4)
	for c := range code {
		base := GlobalBase + int32(c)*simWindow
		code[c] = seq(isa.LI(20, win[0]), isa.LI(21, win[1]), isa.LI(22, win[2]), isa.LI(23, win[0]+int32(g.next()%8)),
			isa.LI(24, simLengths[g.next()%16]), isa.LI(25, 2+2*int32(g.next()%16)),
			isa.LI(26, base), isa.LI(27, base+simWindow/2), isa.LI(9, simWindow/2),
			isa.LI(28, int32(g.next()%2)), isa.LI(29, 1+int32(g.next()%8)), isa.LI(30, 1+int32(g.next()%8)),
			isa.LI(streamDivisor, []int32{1, 2, 3, -5}[g.next()%4]), one(isa.MemCpy(20, 26, 9, 0), isa.MemCpy(21, 26, 9, 0)))
		for r := uint8(1); r <= 6; r++ {
			code[c] = seq(code[c], isa.LI(r, int32(int16(g.next()|g.next()<<8))))
		}
	}
	var kinds []string
	for phase, phases := int32(1), 3+int32(g.next()%8); phase <= phases; phase++ {
		size, src, dst := simLengths[g.next()%16], uint8(20+g.next()%4), uint8(20+g.next()%4)
		switch g.next() % 8 {
		case 0: // each core sends to its successor, then receives from its predecessor
			kinds = append(kinds, "ring")
			for c := range code {
				code[c] = seq(code[c], isa.LI(11, int32(c+1)%4), isa.LI(12, int32(c+3)%4), isa.LI(13, size),
					one(isa.Send(src, 13, 11, phase), isa.Recv(dst, 13, 12, phase)))
			}
		case 1:
			kinds = append(kinds, "pair")
			from := g.next() % 4
			to := (from + 1 + g.next()%3) % 4
			code[from] = seq(code[from], isa.LI(11, int32(to)), isa.LI(13, size), one(isa.Send(src, 13, 11, phase)))
			code[to] = seq(code[to], isa.LI(12, int32(from)), isa.LI(13, size), one(isa.Recv(dst, 13, 12, phase)))
		case 2:
			kinds = append(kinds, "barrier")
			for c := range code {
				code[c] = seq(code[c], one(isa.Barrier(uint16(phase))))
			}
		default:
			for c := range code {
				for n := g.next() % 16; n > 0; n-- {
					code[c] = seq(code[c], g.op(true))
				}
			}
		}
	}
	if ending < 2 { // a division by zero, or a RECV nothing sends
		kinds = append(kinds, []string{"fault", "deadlock"}[ending])
		c := g.next() % 4
		code[c] = seq(code[c], [][]isa.Instruction{one(isa.ALU(isa.FnDiv, 1, 1, 0)),
			seq(isa.LI(12, int32(c+1)%4), one(isa.Recv(20, 24, 12, 999)))}[ending])
	}
	progs := make([]Program, 4)
	for c := range progs {
		progs[c] = Program{Core: c, Code: seq(code[c], one(isa.MemCpy(26, 22, 24, 0)), spinHalt())}
	}
	return progs, kinds
}

// op is one generated operation of a core, one or a few instructions; loops
// says whether it may be a counted loop (loops do not nest).
func (g *simGen) op(loops bool) []isa.Instruction {
	k, a, b, c := g.next(), g.next(), g.next(), g.next()
	data := func(x int) uint8 { return uint8(1 + x%6) } // G1-G6
	win := func(x int) uint8 { return uint8(20 + x%4) }
	switch k % 16 {
	case 0, 1, 2, 3, 4, 5:
		return one(scalarOp([]int{0, 0, 1, 2, 3, 4}[k%16], a, b, c, data, data, simSRegs))
	case 6: // an operand-window register, in bounds
		set := [][2]int32{{isa.SRegVecStrideA, int32(b%7) - 3}, {isa.SRegVecStrideB, int32(b%7) - 3},
			{isa.SRegVecStrideD, int32(b%7) - 3}, {isa.SRegSegCount, 1 + int32(b%2)},
			{isa.SRegSegStride, int32(b%81) - 40}, {isa.SRegLoadRow, int32(b % 25)}, {isa.SRegLoadChan, int32(b % 57)}}[a%7]
		return seq(isa.LI(8, set[1]), one(isa.MTS(int(set[0]), 8)))
	case 7, 8: // a load or store of the scratch or the global uniform half, a store into a window
		in := isa.Instruction{Op: streamMemOps[a>>1&1][a&1], RT: data(b), RS: []uint8{0, 27, win(c)}[a>>2%3], Imm: int32(c % 200)}
		if in.RS != 0 && in.RS != 27 {
			in.Op = streamMemOps[1][a&1]
		}
		return one(in)
	case 9:
		return one([]isa.Instruction{isa.MemCpy(win(b), 26, 24, 0), isa.MemCpy(win(b), win(c), 24, int32(c%32)),
			isa.MemCpy(26, win(b), 24, int32(c%192))}[a%3])
	case 10:
		return one(isa.VFill(win(a), 24, int8(b)))
	case 11, 12:
		fn, rt := uint8(a)%(isa.VFnRMax8+1), win(c)
		if _, sizeB, _, _ := isa.VecElemSizes(fn); sizeB == 0 {
			rt = data(c) // a scalar operand, or unused
		}
		return one(isa.Vec(fn, win(b), win(b>>2), rt, 24))
	case 13:
		return one(isa.CimLoad(28, win(a), 29, 30))
	case 14:
		flags := [4]uint16{0, isa.MVMFlagWriteback, isa.MVMFlagWriteRaw, isa.MVMFlagWriteback}[b&3] |
			uint16(b>>2)&(isa.MVMFlagAccumulate|isa.MVMFlagRelu)
		return one(isa.CimMVM(win(a), 25, win(a>>2), isa.MVMFlags(c%2, flags)))
	}
	switch {
	case a%4 == 0: // a forward branch over one or both of the next two operations
		first, second := g.op(loops), g.op(loops)
		skip := len(first) + b%2*len(second)
		return seq(one(isa.Branch(isa.OpBEQ+isa.Opcode(b%4), data(c), data(c>>3), int32(skip))), first, second)
	case a%4 == 1 && b < 32: // a load of lane-varying bytes: most lanes of the batch diverge
		return one(isa.Load(data(c), win(c), int32(c%64)))
	case a%4 == 2 && loops:
		body := seq(g.op(false), g.op(false))
		return seq(isa.LI(14, 1+int32(b%3)), body,
			one(isa.ALUI(isa.FnAdd, 14, 14, -1), isa.Branch(isa.OpBNE, 14, 0, -int32(len(body)+2))))
	}
	return one(isa.Nop())
}

// runSimDifferential runs the programs data describes as FuzzSimDifferential
// says.
func runSimDifferential(t *testing.T, data []byte) {
	cfg := testConfig()
	cfg.Chip.GlobalMemBytes, cfg.Core.LocalMemBytes, cfg.Core.NumMacroGroups = 4*simWindow, simLocalBytes, 2
	progs, kinds := simProgram(data)
	rng := rand.New(rand.NewSource(int64(len(data))))
	globals := make([][]byte, 8)
	for l := range globals {
		globals[l] = make([]byte, cfg.Chip.GlobalMemBytes)
		rng.Read(globals[l])
		for w := simWindow / 2; l > 0 && w < len(globals[l]); w += simWindow {
			copy(globals[l][w:w+simWindow/2], globals[0][w:])
		}
	}
	var want *Stats
	var wantErr string
	run := progs
	for i, leg := range []struct {
		name        string
		mode, lanes int
	}{{"whole core", 0, 1}, {"fused", 0, 1}, {"unfused", 1, 1}, {"8 lanes", 0, 8}} {
		name, lanes := leg.name, leg.lanes
		ch, err := NewChip(&cfg, WithLanes(lanes))
		if err != nil {
			t.Fatal(err)
		}
		ch.EnsureGlobal(cfg.Chip.GlobalMemBytes)
		decodedModes[leg.mode].load(t, ch, run...)
		if err := ch.SetLanes(lanes); err != nil {
			t.Fatal(err)
		}
		for l := range lanes {
			if err := ch.InitGlobalLane(l, GlobalSegment{Data: globals[l]}); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := ch.Run(context.Background())
		for l := range lanes {
			if !slices.Contains(ch.DivergedLanes(), l) {
				matchRef(t, ch, l, err, progs, globals[l])
			}
		}
		if i == 0 {
			wantErr = fmt.Sprint(err)
			run = simMaps(ch, progs)
		} else if fmt.Sprint(err) != wantErr {
			t.Errorf("%s: Run = %v, the whole-core run's %s", name, err, wantErr)
		}
		for k, q := range ch.mailbox {
			if err == nil && !q.empty() {
				t.Errorf("%s: mailbox %+v holds a message at halt", name, k)
			}
		}
		if err == nil {
			if err := stats.Check(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			one := *stats
			one.Lanes, one.DivergedLanes = 1, 0
			if want == nil {
				want = &one
			} else if !reflect.DeepEqual(&one, want) {
				t.Errorf("%s: report differs from the whole-core run's:\n%+v\n%+v", name, &one, want)
			}
		}
		ch.Reset()
		assertPowerOn(t, ch, name+": Reset")
	}
	for _, k := range kinds { // a generated immediate divisor of zero may fault a program first
		if k == "fault" && wantErr == "<nil>" || k == "deadlock" && !strings.Contains(wantErr, "deadlock") && !strings.Contains(wantErr, "by zero") {
			t.Errorf("a %s program ended with %s", k, wantErr)
		}
	}
	if t.Failed() {
		for _, p := range run {
			t.Logf("core %d, map %+v:\n%s", p.Core, *p.Map, isa.DisassembleProgram(p.Code))
		}
		t.FailNow()
	}
}

// simMaps returns progs, each declaring the map a compiler would for what it
// touched on ch, a chip that ran them with no map: footprint's hole, kept
// clear of the 200 bytes from each window register on, where a zero-length
// operand names an address but no page, and every macro group, as a
// generated program may multiply by one it never loaded.
func simMaps(ch *Chip, progs []Program) []Program {
	out := slices.Clone(progs)
	for _, p := range progs {
		c := ch.cores[p.Core]
		for _, w := range c.regs[20:24] {
			for pg := w >> dirtyShift; pg <= min(w+200, c.localSize-1)>>dirtyShift; pg++ {
				c.dirty[pg>>6] |= 1 << (pg & 63)
			}
		}
	}
	for i, m := range footprint(ch, progs) {
		m.Groups = 1<<len(ch.cores[progs[i].Core].mg) - 1
		out[i].Map = &m
	}
	return out
}
