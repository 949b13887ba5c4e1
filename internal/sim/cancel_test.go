package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunHonorsCancelledContext: an already-cancelled context aborts before
// any instruction executes; TestRunCancelsMidSimulation: cancelling while the
// cycle loop runs ~10M scalar instructions aborts it promptly. Both errors
// wrap ctx.Err().
func TestRunHonorsCancelledContext(t *testing.T) { runCancelled(t, 0) }
func TestRunCancelsMidSimulation(t *testing.T)   { runCancelled(t, 5*time.Millisecond) }

func runCancelled(t *testing.T, after time.Duration) {
	cfg := testConfig()
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	load(t, ch, 0, asm(`
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
	`))
	ctx, cancel := context.WithCancel(context.Background())
	if after == 0 {
		cancel()
	} else {
		time.AfterFunc(after, cancel)
	}
	if _, err := ch.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if n := ch.cores[0].stats.Instructions; after == 0 && n != 0 {
		t.Errorf("%d instructions ran under a context cancelled before Run", n)
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
	sender := asm(`
		SC_ADDI G1, G0, 0
		SC_ADDI G3, G0, 1
		SC_ADDI G5, G0, 20
	loop:	SC_ADDI G2, G0, 64
		SEND G1, G2, G3, 7
		SC_ADDI G2, G0, 500
		SEND G1, G2, G3, 7
		SC_ADDI G5, G5, -1
		BNE G5, G0, %loop
	` + spin)
	receiver := asm(`
		SC_ADDI G1, G0, 0
		SC_ADDI G3, G0, 0
		SC_ADDI G5, G0, 10
	loop:	SC_ADDI G2, G0, 64
		RECV G1, G2, G3, 7
		SC_ADDI G2, G0, 500
		RECV G1, G2, G3, 7
		SC_ADDI G5, G5, -1
		BNE G5, G0, %loop
	` + spin)
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

// TestChipResetReuse: Reset restores a run chip to a state that reproduces
// a fresh chip's run exactly (the pooled rerun of the table's runner).
func TestChipResetReuse(t *testing.T) { runRows(t, "scalar loop") }

// TestZeroGlobal bounds-checks and clears a global-memory region.
func TestZeroGlobal(t *testing.T) {
	cfg := testConfig()
	ch, err := NewChip(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch.EnsureGlobal(cfg.Chip.GlobalMemBytes)
	if err := ch.InitGlobal(GlobalSegment{Addr: 7, Data: []byte{1, 2, 3, 4, 5, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := ch.ZeroGlobal(8, 4); err != nil {
		t.Fatal(err)
	}
	if got, err := ch.ReadGlobal(7, 6); err != nil || !bytes.Equal(got, []byte{1, 0, 0, 0, 0, 6}) {
		t.Errorf("after ZeroGlobal(8, 4): %v, %v", got, err)
	}
	if ch.ZeroGlobal(-1, 4) == nil || ch.ZeroGlobal(0, cfg.Chip.GlobalMemBytes+1) == nil {
		t.Error("ZeroGlobal accepted a span out of bounds")
	}
}
