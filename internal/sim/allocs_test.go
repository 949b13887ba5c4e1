package sim

import (
	"context"
	"math"
	"testing"

	"cimflow/internal/isa"
)

// TestStepDecodedZeroAllocs is the steady-state allocation guard of the
// predecoded pipeline: once a core is warm, stepping through a loop that
// exercises the scalar, vector, transfer and CIM units must not allocate at
// all — the scoreboard ranges live in the core's scratch buffer and every
// per-step slice is a view of preallocated state.
func TestStepDecodedZeroAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 1
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := []isa.Instruction{}
	prog = append(prog, isa.LI(1, 0)...)   // vector src A / mvm input
	prog = append(prog, isa.LI(2, 64)...)  // vector src B / fill dst
	prog = append(prog, isa.LI(3, 128)...) // vector dst / mvm out
	prog = append(prog, isa.LI(4, 32)...)  // vector length / copy size
	prog = append(prog, isa.LI(5, 0)...)   // macro group
	prog = append(prog, isa.LI(6, 8)...)   // cim rows
	prog = append(prog, isa.LI(7, 8)...)   // cim chans
	// G8: both activation scales.
	prog = append(prog, isa.LI(8, int32(math.Float32bits(0.0625)))...)
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
	for i := 0; i < 256; i++ { // warm-up: past the LI prologue, loop a few times
		step()
	}
	if avg := testing.AllocsPerRun(20000, step); avg != 0 {
		t.Errorf("steady-state step allocates %.4f objects/op, want 0", avg)
	}
}

// messageStream builds a two-core message stream: core 0 sends rounds
// rounds of one message of each of sizes, in order, to core 1, which receives
// them in the same order. With hold, the sender sends everything before a
// barrier that the receiver waits on before its first RECV, so the whole
// stream is in flight at once.
func messageStream(sizes []int32, rounds int32, hold bool) []Program {
	body := func(op func(rsAddr, rtSize, rdCore uint8, tag int32) isa.Instruction, addr, peer int32, barrierFirst bool) []isa.Instruction {
		var p []isa.Instruction
		if barrierFirst {
			p = append(p, isa.Barrier(1))
		}
		p = append(p, isa.LI(1, addr)...)
		p = append(p, isa.LI(3, peer)...)
		p = append(p, isa.LI(5, rounds)...)
		loop := len(p)
		for _, n := range sizes {
			p = append(p, isa.LI(2, n)...)
			p = append(p, op(1, 2, 3, 7))
		}
		p = append(p, isa.ALUI(isa.FnAdd, 5, 5, -1))
		p = append(p, isa.Branch(isa.OpBNE, 5, 0, int32(loop-len(p)-1)))
		if hold && !barrierFirst {
			p = append(p, isa.Barrier(1))
		}
		return append(p, isa.Halt())
	}
	return []Program{
		{Core: 0, Code: body(isa.Send, 0, 1, false)},
		{Core: 1, Code: body(isa.Recv, 1<<16, 0, hold)},
	}
}

// TestMessagingAllocsBounded covers the send/recv path, which cannot be
// allocation-free on a cold chip (mailbox queues and payload buffers are
// built on first use) but must recycle everything afterwards: once a chip
// has run a stream, Reset and a rerun of it allocate what the stats report
// does and nothing more — no payload buffer, whatever the stream. The
// streams after the first are the ones a pool of at most 256 buffers that
// scanned only its last 8 lost: more than 256 messages in flight; nine
// sizes in rotation, so that small sends take the large buffers and large
// sends find only small ones in the last 8; and 200 messages in flight at
// 2 lanes and then at 8, whose buffers are four times larger.
func TestMessagingAllocsBounded(t *testing.T) {
	cfg := testConfig() // 2x2 cores
	small := []int32{64}
	var interleaved []int32 // nine sizes, 64 B to 16 KB, smallest first
	for n := int32(64); n <= 16<<10; n *= 2 {
		interleaved = append(interleaved, n)
	}
	for _, tc := range []struct {
		name  string
		progs []Program
		warm  []int // lanes of the warm-up runs; the measured runs use the last
	}{
		{"200 in turn", messageStream(small, 200, false), []int{1}},
		{"300 in flight", messageStream(small, 300, true), []int{1}},
		{"interleaved sizes", messageStream(interleaved, 20, true), []int{1}},
		{"2 lanes then 8", messageStream(small, 200, true), []int{2, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ch, err := NewChip(&cfg, WithLanes(8))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tc.progs {
				if err := ch.LoadProgram(p); err != nil {
					t.Fatal(err)
				}
			}
			lanes := tc.warm[len(tc.warm)-1]
			run := func() {
				ch.Reset()
				if err := ch.SetLanes(lanes); err != nil {
					t.Fatal(err)
				}
				if _, err := ch.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range tc.warm {
				lanes = b
				run()
				ch.Reset()
				if err := ch.CheckPayloadPool(); err != nil {
					t.Fatal(err)
				}
			}
			warmed := ch.payloadAllocBytes
			report := testing.AllocsPerRun(5, func() { ch.collect() })
			allocs := testing.AllocsPerRun(5, run)
			if allocs > report {
				t.Errorf("warmed rerun allocates %.0f objects, the stats report %.0f: %.0f more", allocs, report, allocs-report)
			}
			if grown := ch.payloadAllocBytes - warmed; grown != 0 {
				t.Errorf("warmed reruns allocated %d payload bytes", grown)
			}
			ch.Reset()
			if err := ch.CheckPayloadPool(); err != nil {
				t.Error(err)
			}
		})
	}
}
