package sim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
)

// mapped returns progs, each declaring the map m.
func mapped(progs []Program, m MemMap) []Program {
	out := slices.Clone(progs)
	for i := range out {
		out[i].Map = &m
	}
	return out
}

// footprint returns the map a compiler would declare for what each of progs
// touched on ch, a chip that ran them with no map: the longest run of pages
// no window named is the hole, and the groups are those CIM_LOAD wrote.
func footprint(ch *Chip, progs []Program) []MemMap {
	const page = 1 << dirtyShift
	var maps []MemMap
	for _, p := range progs {
		c := ch.cores[p.Core]
		pages := int((c.localSize + page - 1) / page)
		best, bestLen := 0, 0
		for pg := 0; pg < pages; {
			end := pg
			for end < pages && c.dirty[end>>6]>>(end&63)&1 == 0 {
				end++
			}
			if end-pg > bestLen {
				best, bestLen = pg, end-pg
			}
			pg = end + 1
		}
		maps = append(maps, MemMap{
			PoolEnd:  int32(best * page),
			ArenaMin: min(int32((best+bestLen)*page), c.localSize),
			Groups:   c.mgDirty,
		})
	}
	return maps
}

// smallGlobalConfig is the test configuration with 64 KB of global memory.
func smallGlobalConfig() arch.Config {
	cfg := testConfig()
	cfg.Chip.GlobalMemBytes = 64 << 10
	return cfg
}

// runBoth runs progs at the given lanes on a new chip that loads them with
// the map m and on one that loads them with none, both with 64 KB of global
// memory declared, and reports under label the first difference in the
// run's error, report or any chip state. It returns the mapped chip, its
// report and its error text.
func runBoth(t *testing.T, label string, lanes int, progs []Program, m MemMap) (*Chip, *Stats, string) {
	t.Helper()
	cfg := smallGlobalConfig()
	var chips [2]*Chip
	var stats [2]*Stats
	var errs [2]string
	for i, ps := range [][]Program{mapped(progs, m), progs} {
		ch, err := NewChip(&cfg, WithLanes(lanes))
		if err != nil {
			t.Fatal(err)
		}
		ch.EnsureGlobal(cfg.Chip.GlobalMemBytes)
		if err := ch.LoadPrograms(ps); err != nil {
			t.Fatal(err)
		}
		if err := ch.SetLanes(lanes); err != nil {
			t.Fatal(err)
		}
		stats[i], err = ch.Run(context.Background())
		if err != nil {
			errs[i] = err.Error()
		}
		chips[i] = ch
	}
	switch {
	case errs[0] != errs[1]:
		t.Errorf("%s: mapped chip fails with %q, whole chip with %q", label, errs[0], errs[1])
	case !reflect.DeepEqual(stats[0], stats[1]):
		t.Errorf("%s: mapped chip reports\n%+v\nwhole chip\n%+v", label, stats[0], stats[1])
	default:
		if diff := chipDiff(chips[0], chips[1]); diff != "" {
			t.Errorf("%s: %s", label, diff)
		}
	}
	return chips[0], stats[0], errs[0]
}

// TestLazyBackingMatchesZeros holds a chip that backs only the macro groups
// its program declares to one whose program declares the whole core, and
// global memory to the size EnsureGlobal declares: a declared group never
// loaded multiplies as zeros, and an undeclared one is not backed; global
// memory reads and writes up to its declared size and faults one byte past
// it with the same error on both; the host reads it, and EnsureGlobal grows
// it keeping its bytes and shrinks it zeroing the rest.
func TestLazyBackingMatchesZeros(t *testing.T) {
	halt := spinHalt()
	// preload leaves a nonzero accumulator: -2 weights in macro group 0
	// times an input of 3s, so a later MVM that clears it or adds to it
	// shows which it did. Group 1 is declared and never loaded.
	preload := seq(
		isa.LI(1, 0), isa.LI(2, 16), one(isa.VFill(1, 2, 3)),
		isa.LI(1, 64), isa.LI(2, 16*8), one(isa.VFill(1, 2, -2)),
		loadWeights(64, 16),
		mvm(0, 16, 0, 0),
		quant8(),
	)
	groups := MemMap{PoolEnd: 1 << dirtyShift, ArenaMin: 1 << 19, Groups: 0b11}
	unloaded := func(flags uint16) []Program {
		return []Program{{Core: 0, Code: seq(preload,
			isa.LI(1, 0), isa.LI(2, 16), isa.LI(3, 512),
			one(isa.CimMVM(1, 2, 3, isa.MVMFlags(1, flags))),
			halt,
		)}}
	}
	wb := map[string]uint16{
		"raw":         isa.MVMFlagWriteRaw,
		"requantized": isa.MVMFlagWriteback,
		"relu":        isa.MVMFlagWriteback | isa.MVMFlagRelu,
	}
	for name, flags := range wb {
		for _, acc := range []uint16{0, isa.MVMFlagAccumulate} {
			label := fmt.Sprintf("mvm on an unloaded group, %s, accumulate=%v", name, acc != 0)
			ch, _, _ := runBoth(t, label, 1, unloaded(flags|acc), groups)
			if len(ch.cores[0].mg[1]) == 0 || len(ch.cores[0].mg[2]) != 0 {
				t.Errorf("%s: groups 1 and 2 back %d and %d bytes; the map declares 1, not 2",
					label, len(ch.cores[0].mg[1]), len(ch.cores[0].mg[2]))
			}
		}
	}

	t.Run("eight lanes after one", func(t *testing.T) {
		progs := mapped(unloaded(isa.MVMFlagAccumulate|isa.MVMFlagWriteback), groups)
		cfg := smallGlobalConfig()
		ch, err := NewChip(&cfg, WithLanes(8))
		if err != nil {
			t.Fatal(err)
		}
		ch.EnsureGlobal(cfg.Chip.GlobalMemBytes)
		if err := ch.LoadPrograms(progs); err != nil {
			t.Fatal(err)
		}
		if _, err := ch.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		c := ch.cores[0]
		noOwnGroups := func(when string) {
			t.Helper()
			for l := 1; l < len(c.images); l++ {
				for g, w := range c.images[l].mg {
					if !sameBuffer(w, c.mg[g]) {
						t.Fatalf("%s: lane %d holds a buffer of its own for group %d", when, l, g)
					}
				}
			}
		}
		noOwnGroups("after a one-lane run")
		ch.Reset()
		noOwnGroups("after Reset")
		if err := ch.SetLanes(8); err != nil {
			t.Fatal(err)
		}
		got, err := ch.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fresh, want, _ := runBoth(t, "eight lanes on new chips", 8, progs, groups)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after a one-lane run:\n%+v\na new chip:\n%+v", got, want)
		}
		if diff := chipDiff(ch, fresh); diff != "" {
			t.Fatal(diff)
		}
	})

	// Global memory: 64 KB declared.
	const size = 64 << 10
	at := func(addr int32) []isa.Instruction { return isa.LI(1, GlobalBase+addr) }
	global := []struct {
		name  string
		code  []isa.Instruction
		fault string // what the error says, "" for none
	}{
		{"store the last byte", seq(at(size-1), isa.LI(2, 0x5a), one(isa.Instruction{Op: isa.OpScSB, RT: 2, RS: 1})), ""},
		{"load the last byte", seq(at(size-1), one(isa.Instruction{Op: isa.OpScLB, RT: 2, RS: 1})), ""},
		{"load the last word", seq(at(size-4), one(isa.Load(2, 1, 0))), ""},
		{"copy the last byte in", seq(isa.LI(2, 7), at(size-1), isa.LI(3, 1), one(isa.MemCpy(2, 1, 3, 0))), ""},
		{"copy the last byte out", seq(
			isa.LI(2, 7), isa.LI(3, 1), one(isa.VFill(2, 3, 9)),
			at(size-1), one(isa.MemCpy(1, 2, 3, 0)),
		), ""},
		{"load past the end", seq(at(size), one(isa.Instruction{Op: isa.OpScLB, RT: 2, RS: 1})),
			fmt.Sprintf("global access %d out of bounds", size)},
		{"store a word across the end", seq(at(size-3), one(isa.Store(0, 1, 0))),
			fmt.Sprintf("global access %d out of bounds", size-3)},
		{"copy in across the end", seq(isa.LI(2, 7), at(size-1), isa.LI(3, 2), one(isa.MemCpy(2, 1, 3, 0))),
			fmt.Sprintf("global read [%d+2) out of bounds", size-1)},
		{"copy out across the end", seq(isa.LI(2, 7), isa.LI(3, 2), at(size-1), one(isa.MemCpy(1, 2, 3, 0))),
			fmt.Sprintf("global write [%d+2) out of bounds", size-1)},
	}
	for _, gc := range global {
		_, _, err := runBoth(t, gc.name, 2, []Program{{Core: 0, Code: seq(gc.code, halt)}}, MemMap{PoolEnd: 8, ArenaMin: 1 << 19})
		if (gc.fault == "") != (err == "") || !strings.Contains(err, gc.fault) {
			t.Errorf("%s: Run fails with %q, want the fault %q", gc.name, err, gc.fault)
		}
	}

	t.Run("host reads", func(t *testing.T) {
		cfg := smallGlobalConfig()
		ch, err := NewChip(&cfg, WithLanes(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.InitGlobal(GlobalSegment{Addr: 0, Data: []byte{1}}); err == nil {
			t.Fatal("a new chip declares global memory")
		}
		ch.EnsureGlobal(size)
		if err := ch.InitGlobal(GlobalSegment{Addr: 0, Data: []byte{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
		if err := ch.InitGlobalLane(1, GlobalSegment{Addr: size - 16, Data: []byte{9, 9}}); err != nil {
			t.Fatal(err)
		}
		if err := ch.ZeroGlobal(size-16, 16); err != nil {
			t.Fatal(err)
		}
		for l := range 2 {
			b, err := ch.ReadGlobalLane(l, size-16, 16)
			if err != nil || !bytes.Equal(b, make([]byte, 16)) {
				t.Errorf("lane %d: the last 16 bytes read %v, %v", l, b, err)
			}
		}
		if err := ch.ZeroGlobal(0, 3); err != nil {
			t.Fatal(err)
		}
		if b, err := ch.ReadGlobal(0, 3); err != nil || !bytes.Equal(b, make([]byte, 3)) {
			t.Errorf("ZeroGlobal left %v, %v", b, err)
		}
		want := fmt.Sprintf("sim: global span [%d, %d+8) out of bounds (%d bytes)", size-7, size-7, size)
		if _, err := ch.ReadGlobal(size-7, 8); err == nil || err.Error() != want {
			t.Errorf("ReadGlobal across the end = %v, want %q", err, want)
		}

		// EnsureGlobal grows the memory past the configuration, keeping
		// what it held.
		if err := ch.InitGlobal(GlobalSegment{Addr: size - 4, Data: []byte{5, 6, 7, 8}}); err != nil {
			t.Fatal(err)
		}
		ch.EnsureGlobal(2 * size)
		if err := ch.InitGlobal(GlobalSegment{Addr: 2*size - 4, Data: []byte{1, 2, 3, 4}}); err != nil {
			t.Fatal(err)
		}
		load(t, ch, 0, seq(at(2*size-4), one(isa.Load(2, 1, 0), isa.Store(2, 1, -4)), halt))
		if _, err := ch.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if b, err := ch.ReadGlobal(2*size-8, 8); err != nil || !bytes.Equal(b, []byte{1, 2, 3, 4, 1, 2, 3, 4}) {
			t.Errorf("a word copied below the grown size reads %v, %v", b, err)
		}
		if b, err := ch.ReadGlobal(size-4, 4); err != nil || !bytes.Equal(b, []byte{5, 6, 7, 8}) {
			t.Errorf("growing lost the old tail: %v, %v", b, err)
		}
		if _, err := ch.ReadGlobal(2*size, 1); err == nil {
			t.Error("ReadGlobal past the grown size succeeded")
		}

		// Shrinking zeroes what it drops: grown again, it reads as zeros.
		ch.EnsureGlobal(size)
		for l, g := range ch.global {
			if i := firstNonzero(g[size:cap(g)]); i >= 0 {
				t.Fatalf("lane %d: byte %d past the shrunk size is %#x", l, size+i, g[size:][i])
			}
		}
		ch.EnsureGlobal(2 * size)
		if b, err := ch.ReadGlobal(2*size-8, 8); err != nil || !bytes.Equal(b, make([]byte, 8)) {
			t.Errorf("shrunk and grown again, the tail reads %v, %v", b, err)
		}
	})
}

// holeCases are programs on a core of mem bytes of local memory, mem a
// whole number of pages past the third. Each reads a lane's 64 input bytes
// into local[0:64], in the first page; most then fill the last 64 bytes
// ("open"), in the last page, which leaves the hole [page, mem-page) between
// when nothing else is touched, and put a window of one kind of access at,
// below, above or across an edge of that hole, across all of it, or inside
// it to read. The rest touch the middle of memory first, and one faults past
// the end of memory. footprint declares each one's map.
func holeCases(mem int32) []laneCase {
	const page = 1 << dirtyShift
	lo, hi := int32(page), mem-page // the hole "open" leaves
	in, halt := copyIn(0, laneIn, 64), spinHalt()
	fill := func(at, n int32) []isa.Instruction {
		return seq(isa.LI(1, at), isa.LI(2, n), one(isa.VFill(1, 2, 0x5a)))
	}
	open := seq(in, fill(mem-64, 64))
	opened := func(name string, body ...[]isa.Instruction) laneCase {
		return laneCase{name: name, progs: []Program{{Core: 0, Code: seq(open, seq(body...), halt)}}}
	}
	storeByte := func(at int32) isa.Instruction { return isa.Instruction{Op: isa.OpScSB, RT: 2, RS: 1, Imm: at} }
	return []laneCase{
		opened("fill from the low edge", fill(lo, 16)),
		opened("fill up to the low edge", fill(lo-16, 16)),
		opened("fill up to the high edge", fill(hi-16, 16)),
		opened("fill from the high edge", fill(hi, 16)),
		opened("fill across the whole hole", fill(100, mem-200)),
		opened("empty fill inside the hole", fill(mem/2, 0)),
		opened("byte stores either side of both edges", isa.LI(1, 0), isa.LI(2, 0x77),
			one(storeByte(lo-1), storeByte(lo), storeByte(hi-1), storeByte(hi))),
		opened("word store across the low edge", isa.LI(1, lo-2), isa.LI(2, 0x01020304), one(isa.Store(2, 1, 0))),
		opened("vector copy across the low edge", vec(isa.VFnMov8, lo-20, 0, 0, 64)),
		opened("local copy across the high edge", isa.LI(1, hi-30), isa.LI(2, 0), isa.LI(3, 64), one(isa.MemCpy(1, 2, 3, 0))),
		opened("strided vector backwards across the high edge", setSReg(isa.SRegVecStrideD, -3), vec(isa.VFnMov8, hi+40, 0, 0, 40)),
		opened("word load from the hole", isa.LI(1, mem/2), one(isa.Load(2, 1, 0), isa.Store(2, 0, 200))),
		opened("vector reads the hole", vec(isa.VFnAdd8, 128, mem/2, 0, 64), vec(isa.VFnRSum8, 256, mem/2+page, 0, 64)),
		opened("mvm segments on both sides, writeback across the high edge", quant8(), loadWeights(0, 4),
			setSReg(isa.SRegSegCount, 2), setSReg(isa.SRegSegStride, hi-lo), mvm(lo-1, 4, hi-3, isa.MVMFlagWriteRaw)),
		opened("cim load across the low edge", vec(isa.VFnMov8, lo-8, 0, 0, 32), loadWeights(lo-8, 4)),
		{name: "send across the low edge, receive in the middle first", progs: []Program{
			{Core: 0, Code: seq(open, vec(isa.VFnMov8, lo-10, 0, 0, 64),
				isa.LI(1, lo-10), isa.LI(2, 64), isa.LI(3, 1), one(isa.Send(1, 2, 3, 7)), halt)},
			{Core: 1, Code: seq(isa.LI(1, mem/2-20), isa.LI(2, 64), isa.LI(3, 0), one(isa.Recv(1, 2, 3, 7)), halt)},
		}},
		{name: "middle first, then the low end and across the high edge", progs: []Program{{Core: 0, Code: seq(
			fill(mem/4*3+100, 16), in, fill(mem/4*3-8, 16), halt)}}},
		{name: "middle first below the midpoint", progs: []Program{{Core: 0, Code: seq(
			fill(mem/2-page-8, 16), in, vec(isa.VFnMov8, mem/2-page, 0, 0, 64), halt)}}},
		opened("fault after the hole grew", fill(lo, 2*page), isa.LI(1, hi+page-2), one(isa.Store(0, 1, 0), isa.Halt())),
	}
}

// declared returns lc with each program declaring the map footprint finds
// for it, from a run of lc at one lane on a chip of cfg with no maps.
func (lc laneCase) declared(t *testing.T, cfg *arch.Config) *laneCase {
	t.Helper()
	whole := lc.stage(t, cfg)
	runOccupancy(t, whole, 1, nil)
	lc.progs = slices.Clone(lc.progs)
	for i, m := range footprint(whole, lc.progs) {
		lc.progs[i].Map = &m
	}
	return &lc
}

// TestLazyLocalMatchesEager holds a chip whose programs declare the local
// memory they touch (footprint) to the reference executor and to a chip
// whose programs declare the whole core: for every holeCases program
// at 1 and 8 lanes, every lane's registers and memory are the reference's,
// and the run's error, report and whole chip state the whole chip's,
// untouched cores backing nothing. The mapped chip is then Reset — to
// power-on state, keeping its map — and runs at 2 and 8 lanes again (the
// one-lane chip at 1), held to the reference each time. A map one page
// short at either end the program touches, loaded right after a run (whose
// record the re-mapping clears), faults with ErrUnmapped, as does an empty
// window strictly inside the hole. Last, one chip is retargeted to
// half and back to the full local memory, reading as a new chip each time,
// and runs every case as a new chip does, mapped inside the backing it kept.
func TestLazyLocalMatchesEager(t *testing.T) {
	const page = 1 << dirtyShift
	cfg := smallGlobalConfig()
	cfg.Core.LocalMemBytes = 64 << 10
	mem := int32(cfg.Core.LocalMemBytes)
	for _, lc := range holeCases(mem) {
		for _, lanes := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/%d lanes", lc.name, lanes), func(t *testing.T) {
				dc := lc.declared(t, &cfg)
				tight, whole := dc.stage(t, &cfg, WithLanes(lanes)), lc.stage(t, &cfg, WithLanes(lanes))
				if strings.Contains(lc.name, "empty") {
					if _, err := runOccupancy(t, tight, lanes, nil); !errors.Is(err, ErrUnmapped) {
						t.Fatalf("an empty window inside the hole: Run = %v, want ErrUnmapped", err)
					}
					tight.Reset()
					assertPowerOn(t, tight, "Reset")
					return
				}
				got, err := runOccupancy(t, tight, lanes, lc.progs)
				want, wantErr := runOccupancy(t, whole, lanes, nil)
				switch {
				case fmt.Sprint(err) != fmt.Sprint(wantErr):
					t.Fatalf("mapped chip fails with %v, whole chip with %v", err, wantErr)
				case (err == nil) != !strings.Contains(lc.name, "fault"):
					t.Fatalf("Run = %v", err)
				case !reflect.DeepEqual(got, want):
					t.Fatalf("mapped chip reports\n%+v\nwhole chip\n%+v", got, want)
				}
				if diff := chipDiff(tight, whole); diff != "" {
					t.Fatal(diff)
				}
				c := tight.cores[0]
				if len(tight.cores[3].local) != 0 || c.holeLo == c.holeHi && !strings.Contains(lc.name, "whole hole") {
					t.Fatalf("core 0 backs %d of %d bytes (hole [%d, %d)), core 3 %d", len(c.local), mem, c.holeLo, c.holeHi, len(tight.cores[3].local))
				}
				tight.Reset()
				assertPowerOn(t, tight, "Reset")
				hole := [...]int32{c.holeLo, c.holeHi, int32(len(c.local))}
				for _, b := range []int{max(1, lanes/4), lanes} {
					if _, err := runOccupancy(t, tight, b, lc.progs); fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("rerun at %d lanes: %v, first run %v", b, err, wantErr)
					}
					if now := [...]int32{c.holeLo, c.holeHi, int32(len(c.local))}; now != hole {
						t.Fatalf("rerun at %d lanes: hole and backing %v, first run's %v", b, now, hole)
					}
					tight.Reset()
					assertPowerOn(t, tight, fmt.Sprintf("Reset after %d lanes", b))
				}

				m := *dc.progs[0].Map
				for _, short := range []MemMap{{m.PoolEnd - page, m.ArenaMin, m.Groups}, {m.PoolEnd, m.ArenaMin + page, m.Groups}} {
					if short.PoolEnd < 0 || short.ArenaMin > mem {
						continue
					}
					// Re-mapped right after a run, the chip clears that run's
					// record where the old map placed it.
					if err := tight.LoadPrograms(dc.progs); err != nil {
						t.Fatal(err)
					}
					runOccupancy(t, tight, lanes, nil)
					ps := slices.Clone(dc.progs)
					ps[0].Map = &short
					if err := tight.LoadPrograms(ps); err != nil {
						t.Fatal(err)
					}
					tight.Reset()
					assertPowerOn(t, tight, "Reset after re-mapping a chip that ran")
					if _, err := runOccupancy(t, tight, lanes, nil); !errors.Is(err, ErrUnmapped) {
						t.Fatalf("map %+v, a page short of %+v: Run = %v, want ErrUnmapped", short, m, err)
					}
					tight.Reset()
					assertPowerOn(t, tight, "Reset after the fault")
				}
			})
		}
	}

	t.Run("retarget", func(t *testing.T) {
		half := cfg.WithLocalMemBytes(int(mem / 2))
		cases := holeCases(mem)
		ch := cases[len(cases)-2].declared(t, &cfg).stage(t, &cfg, WithLanes(2)) // backs both ends and the middle
		if _, err := runOccupancy(t, ch, 2, nil); err != nil {
			t.Fatal(err)
		}
		backing := cap(ch.cores[0].local)
		for _, step := range []arch.Config{half, cfg} {
			if err := ch.Retarget(&step); err != nil {
				t.Fatal(err)
			}
			assertPowerOn(t, ch, "Retarget")
			fresh, err := NewChip(&step, WithLanes(2))
			if err != nil {
				t.Fatal(err)
			}
			if diff := chipDiff(ch, fresh); diff != "" {
				t.Fatalf("%d bytes: retargeted chip unlike a new one: %s", step.Core.LocalMemBytes, diff)
			}
			if c := ch.cores[0]; cap(c.local) != backing || c.holeLo != 0 || c.holeHi != int32(step.Core.LocalMemBytes) {
				t.Fatalf("%d bytes: backing %d of %d kept, hole [%d, %d)", step.Core.LocalMemBytes, cap(c.local), backing, c.holeLo, c.holeHi)
			}
			for _, lc := range holeCases(int32(step.Core.LocalMemBytes)) {
				if strings.Contains(lc.name, "empty") {
					continue
				}
				dc := lc.declared(t, &step)
				ch.EnsureGlobal(laneMemBytes)
				if err := ch.LoadPrograms(dc.progs); err != nil {
					t.Fatal(err)
				}
				fresh := dc.stage(t, &step, WithLanes(2))
				got, err := runOccupancy(t, ch, 2, lc.progs)
				want, wantErr := runOccupancy(t, fresh, 2, nil)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: retargeted chip %v\n%+v\nnew chip %v\n%+v", lc.name, err, got, wantErr, want)
				}
				if diff := chipDiff(ch, fresh); diff != "" {
					t.Fatalf("%s: %s", lc.name, diff)
				}
				if err := ch.Retarget(&step); err != nil { // unmap for the next case
					t.Fatal(err)
				}
			}
			if c := ch.cores[0]; cap(c.local) != backing && step.Core.LocalMemBytes < backing {
				t.Fatalf("%d bytes: the backing grew from %d to %d bytes", step.Core.LocalMemBytes, backing, cap(c.local))
			}
		}
		// Local addresses stop where the global window starts.
		huge := cfg.WithLocalMemBytes(GlobalBase + 4)
		if err := ch.Retarget(&huge); err == nil || !strings.Contains(err.Error(), "global window") {
			t.Fatalf("Retarget to local memory past GlobalBase = %v", err)
		}
	})
}

// TestMemMapEdge runs a program laid out as the compiler lays one out — a
// constant pool copied to the bottom of local memory, an arena allocated
// down from its top whose lowest buffer stages the weights of macro group 2,
// an MVM on that group — against the map that declares exactly that, at 1
// and 8 lanes, holding every lane to the reference executor and the report
// to the same program's with no map. A map whose arena starts one page
// higher, so that the arena reaches a page below it, faults with
// ErrUnmapped, as do a CIM_LOAD into and a CIM_MVM on a group it does not
// declare; with no map, the program with the undeclared MVM runs and matches
// the reference. A pool and an arena sharing a page leave no hole.
func TestMemMapEdge(t *testing.T) {
	const page = 1 << dirtyShift
	cfg := testConfig()
	mem := int32(cfg.Core.LocalMemBytes)
	arenaMin := mem - page - 256
	in, wts, out := mem-64, arenaMin, mem-128
	program := func(group int) []Program {
		return []Program{{Core: 0, Code: seq(
			copyIn(0, laneIn+32, 16), // the constant pool
			copyIn(in, laneIn, 16), copyIn(wts, laneUniform, 128),
			isa.LI(6, 0), isa.LI(7, 16), one(isa.Vec(isa.VFnAdd8, 6, 6, 6, 7)), // reads the pool
			quant8(), isa.LI(1, wts), isa.LI(2, 16), isa.LI(3, 8), isa.LI(4, 2), one(isa.CimLoad(4, 1, 2, 3)),
			isa.LI(1, in), isa.LI(2, 16), isa.LI(3, out),
			one(isa.CimMVM(1, 2, 3, isa.MVMFlags(group, isa.MVMFlagWriteback))),
			copyOut(laneOut, out, 8), spinHalt(),
		)}}
	}
	declared := MemMap{PoolEnd: 16, ArenaMin: arenaMin, Groups: 1 << 2}
	run := func(lanes int, progs []Program, ref bool) (*Stats, error) {
		lc := laneCase{progs: progs, uniform: laneWeights()}
		ch := lc.stage(t, &cfg, WithLanes(lanes))
		if !ref {
			progs = nil // a fault the reference does not know
		}
		return runOccupancy(t, ch, lanes, progs)
	}
	for _, lanes := range []int{1, 8} {
		want, err := run(lanes, program(2), true)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := run(lanes, mapped(program(2), declared), true); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%d lanes: mapped run %v\n%+v\nunmapped\n%+v", lanes, err, got, want)
		}
		if _, err := run(lanes, program(3), true); err != nil {
			t.Fatalf("%d lanes: with no map, an MVM on a group never loaded = %v", lanes, err)
		}
		for name, tc := range map[string]struct {
			progs []Program
			what  string
		}{
			"arena a page below the map":      {mapped(program(2), MemMap{16, arenaMin + page, 1 << 2}), "MEM_CPY"},
			"cim_load on an undeclared group": {mapped(program(2), MemMap{16, arenaMin, 1 << 3}), "CIM_LOAD"},
			"mvm on an undeclared group":      {mapped(program(3), declared), "CIM_MVM"},
		} {
			_, err := run(lanes, tc.progs, false)
			if !errors.Is(err, ErrUnmapped) || !strings.Contains(err.Error(), tc.what) {
				t.Errorf("%d lanes, %s: Run = %v, want ErrUnmapped at %s", lanes, name, err, tc.what)
			}
		}
	}

	// A pool and an arena that meet inside a page leave no hole: a fill
	// across that page reads back as the reference's.
	fill := []Program{{Code: seq(isa.LI(1, page-100), isa.LI(2, 1200), one(isa.VFill(1, 2, 0x5a)), spinHalt()),
		Map: &MemMap{PoolEnd: page + 900, ArenaMin: page + 1000}}}
	ch, _, err := runChip(t, cfg, nil, fill...)
	matchRef(t, ch, 0, err, fill, nil)
}
