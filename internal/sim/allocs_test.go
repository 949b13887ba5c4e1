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

// TestMessagingAllocsBounded covers the send/recv path, which cannot be
// allocation-free on a cold chip (mailbox queues and payload buffers are
// built on first use) but must recycle everything afterwards: a warmed,
// Reset chip re-running a 200-message stream may allocate only the
// per-run fixed overhead (the stats report), not per message.
func TestMessagingAllocsBounded(t *testing.T) {
	cfg := testConfig() // 2x2 cores
	// Pin the serial scheduler: this bound is about the messaging fast
	// path, and the parallel scheduler's per-run pool setup (goroutines,
	// channels, profiler labels) would drown the budget on multicore hosts.
	ch, err := NewChip(&cfg, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 200
	sender := []isa.Instruction{}
	sender = append(sender, isa.LI(1, 0)...)    // payload addr
	sender = append(sender, isa.LI(2, 64)...)   // payload size
	sender = append(sender, isa.LI(3, 1)...)    // destination core
	sender = append(sender, isa.LI(5, msgs)...) // counter
	loop := len(sender)
	sender = append(sender,
		isa.Send(1, 2, 3, 7),
		isa.ALUI(isa.FnAdd, 5, 5, -1),
	)
	sender = append(sender, isa.Branch(isa.OpBNE, 5, 0, int32(loop-len(sender)-1)), isa.Halt())

	receiver := []isa.Instruction{}
	receiver = append(receiver, isa.LI(1, 128)...) // landing addr
	receiver = append(receiver, isa.LI(2, 64)...)  // size
	receiver = append(receiver, isa.LI(3, 0)...)   // source core
	receiver = append(receiver, isa.LI(5, msgs)...)
	loop = len(receiver)
	receiver = append(receiver,
		isa.Recv(1, 2, 3, 7),
		isa.ALUI(isa.FnAdd, 5, 5, -1),
	)
	receiver = append(receiver, isa.Branch(isa.OpBNE, 5, 0, int32(loop-len(receiver)-1)), isa.Halt())

	load := func() {
		if err := ch.LoadProgram(Program{Core: 0, Code: sender}); err != nil {
			t.Fatal(err)
		}
		if err := ch.LoadProgram(Program{Core: 1, Code: receiver}); err != nil {
			t.Fatal(err)
		}
	}
	load()
	if _, err := ch.Run(context.Background()); err != nil { // warm queues and payload pool
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		ch.Reset()
		if _, err := ch.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	// collect() builds the per-run Stats report (a handful of allocations);
	// anything scaling with the 200 messages means recycling regressed.
	if allocs > 25 {
		t.Errorf("warmed messaging run allocates %.1f objects/run, want the fixed report overhead only (<= 25)", allocs)
	}
}
