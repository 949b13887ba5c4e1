package sim

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"cimflow/internal/isa"
)

// TestLaneDivergenceDetection loads a byte that differs between lanes into
// a register — the one operation that can break the shared-register
// invariant — and requires the run to flag the divergent lane while lane
// 0's results stay exactly those of a serial run.
func TestLaneDivergenceDetection(t *testing.T) {
	cfg := testConfig()
	lc := laneCase{progs: []Program{{Code: seq(isa.LI(1, GlobalBase), one(
		isa.Instruction{Op: isa.OpScLB, RT: 2, RS: 1, Imm: laneIn + 8}, // r2 = input byte 8: 25 in lane 0, 0 in lane 1
		isa.Instruction{Op: isa.OpScSB, RT: 2, RS: 1, Imm: laneOut},
		isa.Halt()))}}}
	ch := lc.stage(t, &cfg, WithLanes(2))
	stats, err := runOccupancy(t, ch, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := ch.ReadGlobal(laneOut, 1); !slices.Equal(ch.DivergedLanes(), []int{1}) || stats.DivergedLanes != 1 || out[0] != 25 {
		t.Fatalf("diverged lanes %v (stats %d), lane 0 wrote %d: want lane 1 flagged and 25", ch.DivergedLanes(), stats.DivergedLanes, out[0])
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
					staged[l] = globalReads(ch, l, ch.gsize)
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

// TestAccessorBounds: every host-side memory accessor rejects a span that
// leaves its memory — negative sizes (which used to slip past the
// addr+size check into a panicking make) and overflowing ends included —
// and a lane that is not allocated.
func TestAccessorBounds(t *testing.T) {
	cfg := smallGlobalConfig()
	ch, err := NewChip(&cfg, WithLanes(2))
	if err != nil {
		t.Fatal(err)
	}
	ch.EnsureGlobal(cfg.Chip.GlobalMemBytes)
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
