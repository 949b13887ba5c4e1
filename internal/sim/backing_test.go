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

// backEagerly backs every macro group and the whole of global memory in
// every lane with zeros, as a chip that allocated its capacity at build
// would hold them.
func backEagerly(ch *Chip) {
	ch.backGlobal(ch.globalSize)
	for _, c := range ch.cores {
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
		ch.Reset()
		c := ch.cores[0]
		if c.images[0].mg[0] == nil || c.images[1].mg[0] != nil {
			t.Fatal("a one-lane run should back group 0 in lane 0 only")
		}
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
