package sim

import (
	"context"
	"errors"
	"testing"
	"time"
)

// longLoop returns a single-core program that spins through ~10M scalar
// instructions before halting — long enough that a test can cancel it
// mid-simulation.
func longLoop(t *testing.T) Program {
	t.Helper()
	code := asm(t, `
		SC_ADDI G1, G0, 500
	outer:	SC_ADDI G2, G0, 500
	inner:	SC_ADDI G3, G0, 20
	in2:	SC_ADDI G3, G3, -1
		BNE G3, G0, %in2
		SC_ADDI G2, G2, -1
		BNE G2, G0, %inner
		SC_ADDI G1, G1, -1
		BNE G1, G0, %outer
		HALT
	`)
	return Program{Core: 0, Code: code}
}

// TestRunHonorsCancelledContext: an already-cancelled context must abort
// before any instruction executes.
func TestRunHonorsCancelledContext(t *testing.T) {
	cfg := testConfig()
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.LoadProgram(longLoop(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ch.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestRunCancelsMidSimulation: cancelling while the cycle loop is running
// must abort the simulation promptly with an error wrapping ctx.Err().
func TestRunCancelsMidSimulation(t *testing.T) {
	cfg := testConfig()
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.LoadProgram(longLoop(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err = ch.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

// cancelAfter is a context whose Err turns Canceled at the n-th poll, so a
// run is cancelled at the same scheduler step on any host.
type cancelAfter struct {
	context.Context
	n int
}

func (c *cancelAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestAbortedRunReturnsPayloads: a run abandoned with messages still in the
// mailbox — by cancellation or by the cycle limit — leaves their payload
// buffers outside the pool until Reset, which returns every one of them to
// its size class, on both executors.
func TestAbortedRunReturnsPayloads(t *testing.T) {
	const spin = `
		SC_ADDI G10, G0, 500
	s1:	SC_ADDI G11, G0, 500
	s2:	SC_ADDI G12, G0, 20
	s3:	SC_ADDI G12, G12, -1
		BNE G12, G0, %s3
		SC_ADDI G11, G11, -1
		BNE G11, G0, %s2
		SC_ADDI G10, G10, -1
		BNE G10, G0, %s1
		HALT
	`
	// Core 0 sends 20 rounds of a 64-byte and a 500-byte message; core 1
	// takes the first 10 rounds. Both then spin for ~10M instructions.
	sender := asm(t, `
		SC_ADDI G1, G0, 0
		SC_ADDI G3, G0, 1
		SC_ADDI G5, G0, 20
	loop:	SC_ADDI G2, G0, 64
		SEND G1, G2, G3, 7
		SC_ADDI G2, G0, 500
		SEND G1, G2, G3, 7
		SC_ADDI G5, G5, -1
		BNE G5, G0, %loop
	`+spin)
	receiver := asm(t, `
		SC_ADDI G1, G0, 0
		SC_ADDI G3, G0, 0
		SC_ADDI G5, G0, 10
	loop:	SC_ADDI G2, G0, 64
		RECV G1, G2, G3, 7
		SC_ADDI G2, G0, 500
		RECV G1, G2, G3, 7
		SC_ADDI G5, G5, -1
		BNE G5, G0, %loop
	`+spin)
	cfg := testConfig()
	for _, ex := range resetExecutors {
		for _, abort := range []string{"cancel", "limit"} {
			t.Run(ex.name+"/"+abort, func(t *testing.T) {
				ch, err := NewChip(&cfg)
				if err != nil {
					t.Fatal(err)
				}
				ex.load(t, ch, Program{Core: 0, Code: sender}, Program{Core: 1, Code: receiver})
				for run := 0; run < 2; run++ {
					// Poll 1 is Run's entry check; the scheduler's follow
					// every 8192 steps, long after the last SEND.
					var err error
					if abort == "cancel" {
						_, err = ch.Run(&cancelAfter{Context: context.Background(), n: 3})
					} else {
						ch.CycleLimit = 50_000
						_, err = ch.Run(context.Background())
					}
					if want := map[string]error{"cancel": context.Canceled, "limit": ErrCycleLimit}[abort]; !errors.Is(err, want) {
						t.Fatalf("run %d: Run = %v, want an error naming the %s", run, err, want)
					}
					if ch.CheckPayloadPool() == nil {
						t.Fatalf("run %d: pool accounts for every buffer with 20 messages undelivered", run)
					}
					ch.Reset()
					if err := ch.CheckPayloadPool(); err != nil {
						t.Fatalf("run %d: after Reset: %v", run, err)
					}
				}
			})
		}
	}
}

// TestChipResetReuse: Reset must restore a run chip to a state that
// reproduces a fresh chip's simulation exactly.
func TestChipResetReuse(t *testing.T) {
	code := asm(t, `
		SC_ADDI G1, G0, 10
		SC_ADDI G5, G0, 0
	loop:	SC_ADD G5, G5, G1
		SC_ADDI G1, G1, -1
		BNE G1, G0, %loop
		SC_ADDI G2, G0, 100
		SC_ST G5, G2, 0
		HALT
	`)
	cfg := testConfig()
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.LoadProgram(Program{Core: 0, Code: code}); err != nil {
		t.Fatal(err)
	}
	first, err := ch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ch.Reset()
	second, err := ch.Run(context.Background())
	if err != nil {
		t.Fatalf("rerun after Reset: %v", err)
	}
	if first.Cycles != second.Cycles || first.Instructions != second.Instructions {
		t.Errorf("reset run diverged: %d/%d cycles, %d/%d instructions",
			first.Cycles, second.Cycles, first.Instructions, second.Instructions)
	}
	if first.Energy.TotalPJ() != second.Energy.TotalPJ() {
		t.Errorf("reset run energy diverged: %v != %v",
			first.Energy.TotalPJ(), second.Energy.TotalPJ())
	}
	mem, err := ch.ReadLocal(0, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mem[0] != 55 {
		t.Errorf("reused chip result = %d, want 55", mem[0])
	}
}

// TestZeroGlobal bounds-checks and clears a global-memory region.
func TestZeroGlobal(t *testing.T) {
	cfg := testConfig()
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch.EnsureGlobal(cfg.Chip.GlobalMemBytes)
	if err := ch.InitGlobal(GlobalSegment{Addr: 8, Data: []byte{1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := ch.ZeroGlobal(8, 4); err != nil {
		t.Fatal(err)
	}
	got, err := ch.ReadGlobal(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Errorf("byte %d = %d after ZeroGlobal", i, b)
		}
	}
	if err := ch.ZeroGlobal(-1, 4); err == nil {
		t.Error("ZeroGlobal accepted a negative address")
	}
	if err := ch.ZeroGlobal(0, cfg.Chip.GlobalMemBytes+1); err == nil {
		t.Error("ZeroGlobal accepted an oversized range")
	}
}
