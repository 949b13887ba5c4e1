package sim

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
)

// backEagerly backs every macro group, the whole of every core's local
// memory and the whole of global memory in every lane with zeros, as a chip
// that allocated its capacity at build would hold them.
func backEagerly(ch *Chip) {
	ch.backGlobal(ch.globalSize)
	for _, c := range ch.cores {
		if _, err := c.localRange(0, c.localSize); err != nil {
			panic(err)
		}
		for l := range c.images {
			for g := range c.images[l].mg {
				c.images[l].mg[g] = make([]byte, int(c.macroRows)*c.groupChans)
			}
		}
	}
}

// lazyConfig is the test configuration with 64 KB of global memory.
func lazyConfig() arch.Config {
	cfg := testConfig()
	cfg.Chip.GlobalMemBytes = 64 << 10
	return cfg
}

// runBoth runs progs at the given lanes on a new, lazily backed chip and on
// an eagerly backed one, and reports under label the first difference in the
// run's error, report or any chip state. It returns the lazy chip, its report
// and its error text.
func runBoth(t *testing.T, label string, lanes int, progs []Program) (*Chip, *Stats, string) {
	t.Helper()
	cfg := lazyConfig()
	var chips [2]*Chip
	var stats [2]*Stats
	var errs [2]string
	for i := range chips {
		ch, err := NewChip(&cfg, WithLanes(lanes))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 {
			backEagerly(ch)
		}
		if err := ch.LoadPrograms(progs); err != nil {
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
		t.Errorf("%s: lazy chip fails with %q, eager chip with %q", label, errs[0], errs[1])
	case !reflect.DeepEqual(stats[0], stats[1]):
		t.Errorf("%s: lazy chip reports\n%+v\neager chip\n%+v", label, stats[0], stats[1])
	default:
		if diff := chipDiff(chips[0], chips[1]); diff != "" {
			t.Errorf("%s: %s", label, diff)
		}
	}
	return chips[0], stats[0], errs[0]
}

// TestLazyBackingMatchesZeros holds a chip that backs its macro groups and
// global memory on first touch to one that backs them in full with zeros: a
// never-loaded group multiplies as zeros, global memory past the backed
// prefix reads and writes as zeros up to the logical size and faults one
// byte past it with the same error, and the host reads it as zeros.
func TestLazyBackingMatchesZeros(t *testing.T) {
	halt := spinHalt()
	// preload leaves a nonzero accumulator: -2 weights in macro group 0
	// times an input of 3s, so a later MVM that clears it or adds to it
	// shows which it did. Group 1 is never loaded.
	preload := seq(
		isa.LI(1, 0), isa.LI(2, 16), one(isa.VFill(1, 2, 3)),
		isa.LI(1, 64), isa.LI(2, 16*8), one(isa.VFill(1, 2, -2)),
		loadWeights(64, 16),
		mvm(0, 16, 0, 0),
		quant8(),
	)
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
			ch, _, _ := runBoth(t, label, 1, unloaded(flags|acc))
			if ch.cores[0].mg[1] != nil {
				t.Errorf("%s: group 1 backed without a CIM_LOAD", label)
			}
		}
	}

	t.Run("eight lanes after one", func(t *testing.T) {
		progs := unloaded(isa.MVMFlagAccumulate | isa.MVMFlagWriteback)
		cfg := lazyConfig()
		ch, err := NewChip(&cfg, WithLanes(8))
		if err != nil {
			t.Fatal(err)
		}
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
					if w != nil && !sameBuffer(w, c.mg[g]) {
						t.Fatalf("%s: lane %d holds a buffer of its own for group %d", when, l, g)
					}
				}
			}
		}
		noOwnGroups("after a one-lane run")
		ch.Reset()
		if c.mg[0] == nil {
			t.Fatal("a one-lane run should back group 0 in lane 0")
		}
		noOwnGroups("after Reset")
		if err := ch.SetLanes(8); err != nil {
			t.Fatal(err)
		}
		got, err := ch.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		fresh, want, _ := runBoth(t, "eight lanes on new chips", 8, progs)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after a one-lane run:\n%+v\na new chip:\n%+v", got, want)
		}
		if diff := chipDiff(ch, fresh); diff != "" {
			t.Fatal(diff)
		}
	})

	// Global memory: 64 KB logical, nothing backed before the run.
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
		_, _, err := runBoth(t, gc.name, 2, []Program{{Core: 0, Code: seq(gc.code, halt)}})
		if (gc.fault == "") != (err == "") || !strings.Contains(err, gc.fault) {
			t.Errorf("%s: Run fails with %q, want the fault %q", gc.name, err, gc.fault)
		}
	}

	t.Run("host reads", func(t *testing.T) {
		cfg := lazyConfig()
		ch, err := NewChip(&cfg, WithLanes(2))
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.InitGlobal(GlobalSegment{Addr: 0, Data: []byte{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
		if len(ch.global[0]) >= size-8 {
			t.Fatalf("a 3-byte segment backed %d bytes", len(ch.global[0]))
		}
		if err := ch.ZeroGlobal(size-16, 16); err != nil {
			t.Fatal(err)
		}
		for l := range 2 {
			b, err := ch.ReadGlobalLane(l, size-8, 8)
			if err != nil || !bytes.Equal(b, make([]byte, 8)) {
				t.Errorf("lane %d: the last 8 bytes read %v, %v", l, b, err)
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

		// EnsureGlobal raises the logical size past the configuration.
		ch.EnsureGlobal(2 * size)
		if err := ch.InitGlobal(GlobalSegment{Addr: 2*size - 4, Data: []byte{1, 2, 3, 4}}); err != nil {
			t.Fatal(err)
		}
		load(t, ch, 0, seq(at(2*size-4), one(isa.Load(2, 1, 0), isa.Store(2, 1, -4)), halt))
		if _, err := ch.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if b, err := ch.ReadGlobal(2*size-8, 4); err != nil || !bytes.Equal(b, []byte{1, 2, 3, 4}) {
			t.Errorf("a word copied below the raised size reads %v, %v", b, err)
		}
		if _, err := ch.ReadGlobal(2*size, 1); err == nil {
			t.Error("ReadGlobal past the raised size succeeded")
		}
	})
}

// lazyLocalCases are programs on a core of mem bytes of local memory, mem a
// whole number of pages past the third. Each reads a lane's 64 input bytes
// into local[0:64], which backs the first page; most then fill the last 64
// bytes ("open"), which backs the last page and leaves the hole [page,
// mem-page) between, and put a window of one kind of access at, below, above
// or across an edge of that hole, across all of it, or inside it to read.
// The rest touch the middle of untouched memory first, and one faults after
// the hole grew.
func lazyLocalCases(mem int32) []laneCase {
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

// TestLazyLocalMatchesEager holds a chip that backs local memory on first
// touch to the reference executor and to a chip backed in full: for every
// lazyLocalCases program at 1 and 8 lanes, every lane's registers and memory
// are the reference's, and the run's error, report and whole chip state the
// eager chip's, untouched cores backing nothing. The lazy chip is then Reset
// — to power-on state, keeping its hole — and runs at 2 and 8 lanes again
// (the one-lane chip at 1),
// held to the reference each time. Last, one chip is retargeted to half and
// back to the full local memory, reading as a new chip each time, and runs
// every case as a new chip does, regrowing inside the backing it kept.
func TestLazyLocalMatchesEager(t *testing.T) {
	cfg := lazyConfig()
	cfg.Core.LocalMemBytes = 64 << 10
	mem := int32(cfg.Core.LocalMemBytes)
	for _, lc := range lazyLocalCases(mem) {
		for _, lanes := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/%d lanes", lc.name, lanes), func(t *testing.T) {
				lazy, eager := lc.stage(t, &cfg, WithLanes(lanes)), lc.stage(t, &cfg, WithLanes(lanes))
				backEagerly(eager)
				got, err := runOccupancy(t, lazy, lanes, lc.progs)
				want, wantErr := runOccupancy(t, eager, lanes, nil)
				switch {
				case fmt.Sprint(err) != fmt.Sprint(wantErr):
					t.Fatalf("lazy chip fails with %v, eager chip with %v", err, wantErr)
				case (err == nil) != !strings.Contains(lc.name, "fault"):
					t.Fatalf("Run = %v", err)
				case !reflect.DeepEqual(got, want):
					t.Fatalf("lazy chip reports\n%+v\neager chip\n%+v", got, want)
				}
				if diff := chipDiff(lazy, eager); diff != "" {
					t.Fatal(diff)
				}
				c := lazy.cores[0]
				if len(lazy.cores[3].local) != 0 || c.holeLo == c.holeHi && !strings.Contains(lc.name, "whole hole") {
					t.Fatalf("core 0 backs %d of %d bytes (hole [%d, %d)), core 3 %d", len(c.local), mem, c.holeLo, c.holeHi, len(lazy.cores[3].local))
				}
				lazy.Reset()
				assertPowerOn(t, lazy, "Reset")
				hole := [...]int32{c.holeLo, c.holeHi, int32(len(c.local))}
				for _, b := range []int{max(1, lanes/4), lanes} {
					if _, err := runOccupancy(t, lazy, b, lc.progs); fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("rerun at %d lanes: %v, first run %v", b, err, wantErr)
					}
					if now := [...]int32{c.holeLo, c.holeHi, int32(len(c.local))}; now != hole {
						t.Fatalf("rerun at %d lanes: hole and backing %v, first run's %v", b, now, hole)
					}
					lazy.Reset()
					assertPowerOn(t, lazy, fmt.Sprintf("Reset after %d lanes", b))
				}
			})
		}
	}

	t.Run("retarget", func(t *testing.T) {
		half := cfg.WithLocalMemBytes(int(mem / 2))
		cases := lazyLocalCases(mem)
		ch := cases[len(cases)-2].stage(t, &cfg, WithLanes(2)) // backs both ends and the middle
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
			for _, lc := range lazyLocalCases(int32(step.Core.LocalMemBytes)) {
				ch.EnsureGlobal(laneMemBytes)
				if err := ch.LoadPrograms(lc.progs); err != nil {
					t.Fatal(err)
				}
				fresh := lc.stage(t, &step, WithLanes(2))
				got, err := runOccupancy(t, ch, 2, lc.progs)
				want, wantErr := runOccupancy(t, fresh, 2, nil)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: retargeted chip %v\n%+v\nnew chip %v\n%+v", lc.name, err, got, wantErr, want)
				}
				if diff := chipDiff(ch, fresh); diff != "" {
					t.Fatalf("%s: %s", lc.name, diff)
				}
				if err := ch.Retarget(&step); err != nil { // reopen the hole for the next case
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
