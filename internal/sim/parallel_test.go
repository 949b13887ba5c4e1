package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
)

// runWorkers executes the given programs on a fresh chip with the given
// worker-pool size and returns the chip and report.
func runWorkers(t *testing.T, cfg arch.Config, workers int, progs ...Program) (*Chip, *Stats, error) {
	t.Helper()
	ch, err := NewChip(&cfg, WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if err := ch.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := ch.Run(context.Background())
	return ch, stats, err
}

// checkSchedulerEquivalence runs the programs serially and under the
// parallel scheduler at several pool sizes, requiring the full reports —
// cycles, instructions, energy, every per-core stat, NoC traffic — to be
// deep-equal. This is the sim-level arm of the bit-exactness contract; the
// model-level differential lives in internal/core.
func checkSchedulerEquivalence(t *testing.T, cfg arch.Config, progs ...Program) (*Chip, *Stats) {
	t.Helper()
	_, serial, err := runWorkers(t, cfg, 1, progs...)
	if err != nil {
		t.Fatal(err)
	}
	var lastChip *Chip
	for _, w := range []int{2, 8} {
		ch, par, err := runWorkers(t, cfg, w, progs...)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("workers=%d: stats diverge from serial\nserial:   %+v\nparallel: %+v", w, serial, par)
		}
		lastChip = ch
	}
	return lastChip, serial
}

func TestParallelMatchesSerialMessagingRing(t *testing.T) {
	// The determinism ring: four cores each send to their successor,
	// receive from their predecessor, then meet at a barrier.
	cfg := testConfig()
	var progs []Program
	for core := 0; core < 4; core++ {
		prog := []isa.Instruction{}
		prog = append(prog, isa.LI(1, 0)...)
		prog = append(prog, isa.LI(2, 64)...)
		prog = append(prog, isa.LI(3, int32((core+1)%4))...)
		prog = append(prog, isa.LI(4, int32((core+3)%4))...)
		prog = append(prog, isa.Send(1, 2, 3, 5))
		prog = append(prog, isa.Recv(1, 2, 4, 5))
		prog = append(prog, isa.Barrier(1))
		prog = append(prog, isa.Halt())
		progs = append(progs, Program{Core: core, Code: prog})
	}
	checkSchedulerEquivalence(t, cfg, progs...)
}

func TestParallelBarrierWithMessageInFlight(t *testing.T) {
	// The barrier starts forming while core 0's message is still in
	// flight: core 0 sends and immediately barriers; core 1 barriers
	// first and only then receives. The commit order must deliver the
	// send before the barrier forms its participant count, and the
	// receive must observe the (possibly post-release) arrival time
	// exactly as the serial schedule does.
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 2
	sender := asm(t, `
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 32
		SC_ADDI G3, G0, 1
		SEND G1, G2, G3, 4
		BARRIER 2
		HALT
	`)
	receiver := asm(t, `
		BARRIER 2
		SC_ADDI G1, G0, 64
		SC_ADDI G2, G0, 32
		SC_ADDI G3, G0, 0
		RECV G1, G2, G3, 4
		HALT
	`)
	ch, _ := checkSchedulerEquivalence(t, cfg,
		Program{Core: 0, Code: sender}, Program{Core: 1, Code: receiver})
	mem, err := ch.ReadLocal(1, 64, 32)
	if err != nil {
		t.Fatal(err)
	}
	_ = mem // payload is zeros; delivery correctness is covered by the stats equality
}

func TestParallelZeroLengthWindows(t *testing.T) {
	// Two cores interacting every few cycles: a strict request/response
	// ping-pong where nearly every window parks immediately at a shared
	// op. Exercises the degenerate serialized regime of the windowed
	// scheduler.
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 2
	ping := asm(t, `
		SC_ADDI G5, G0, 50
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 4
		SC_ADDI G3, G0, 1
	loop:	SEND G1, G2, G3, 1
		RECV G1, G2, G3, 2
		SC_ADDI G5, G5, -1
		BNE G5, G0, %loop
		HALT
	`)
	pong := asm(t, `
		SC_ADDI G5, G0, 50
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 4
		SC_ADDI G3, G0, 0
	loop:	RECV G1, G2, G3, 1
		SEND G1, G2, G3, 2
		SC_ADDI G5, G5, -1
		BNE G5, G0, %loop
		HALT
	`)
	checkSchedulerEquivalence(t, cfg,
		Program{Core: 0, Code: ping}, Program{Core: 1, Code: pong})
}

func TestParallelSingleCoreFastPath(t *testing.T) {
	// A single active core degenerates to the serial fast path no matter
	// the worker setting; the report must match the explicit serial run.
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 1
	prog := Program{Core: 0, Code: asm(t, `
		SC_ADDI G1, G0, 200
	loop:	SC_ADDI G2, G2, 3
		SC_ADDI G1, G1, -1
		BNE G1, G0, %loop
		SC_ADDI G3, G0, 100
		SC_ST G2, G3, 0
		HALT
	`)}
	_, serial, err := runWorkers(t, cfg, 1, prog)
	if err != nil {
		t.Fatal(err)
	}
	_, par, err := runWorkers(t, cfg, 8, prog)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("single-core stats diverge\nserial:   %+v\nworkers8: %+v", serial, par)
	}
}

func TestParallelDeadlockReportSorted(t *testing.T) {
	// Three of four cores hang on receives that never complete. Both
	// schedulers must report the same deadlock, listing the stuck cores
	// in ascending core-id order.
	cfg := testConfig()
	hang := func(src int) []isa.Instruction {
		return asm(t, fmt.Sprintf(`
			SC_ADDI G1, G0, 0
			SC_ADDI G2, G0, 4
			SC_ADDI G3, G0, %d
			RECV G1, G2, G3, 1
			HALT
		`, src))
	}
	progs := []Program{
		{Core: 0, Code: hang(2)},
		{Core: 1, Code: asm(t, "HALT")},
		{Core: 2, Code: hang(3)},
		{Core: 3, Code: hang(0)},
	}
	_, _, serialErr := runWorkers(t, cfg, 1, progs...)
	if serialErr == nil || !strings.Contains(serialErr.Error(), "deadlock") {
		t.Fatalf("serial Run = %v, want deadlock", serialErr)
	}
	// The stuck-core list must mention cores 0, 2, 3 in that order.
	msg := serialErr.Error()
	i0 := strings.Index(msg, "core 0 pc")
	i2 := strings.Index(msg, "core 2 pc")
	i3 := strings.Index(msg, "core 3 pc")
	if i0 < 0 || i2 < 0 || i3 < 0 || !(i0 < i2 && i2 < i3) {
		t.Errorf("deadlock report not in sorted core order: %s", msg)
	}
	for _, w := range []int{2, 8} {
		_, _, parErr := runWorkers(t, cfg, w, progs...)
		if parErr == nil || parErr.Error() != serialErr.Error() {
			t.Errorf("workers=%d deadlock = %v, want %v", w, parErr, serialErr)
		}
	}
}

func TestParallelCycleLimitMatchesSerial(t *testing.T) {
	// Two runaway cores: the limit error must come from the core the
	// serial schedule would trip first (the smaller (time, id) key).
	cfg := testConfig()
	spin := asm(t, "spin: JMP %spin")
	progs := []Program{{Core: 0, Code: spin}, {Core: 1, Code: spin}}
	run := func(workers int) error {
		ch, err := NewChip(&cfg, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		ch.CycleLimit = 1000
		for _, p := range progs {
			if err := ch.LoadProgram(p); err != nil {
				t.Fatal(err)
			}
		}
		_, err = ch.Run(context.Background())
		return err
	}
	serialErr := run(1)
	if serialErr == nil || !strings.Contains(serialErr.Error(), "cycle limit") {
		t.Fatalf("serial Run = %v, want cycle limit error", serialErr)
	}
	for _, w := range []int{2, 8} {
		if parErr := run(w); parErr == nil || parErr.Error() != serialErr.Error() {
			t.Errorf("workers=%d limit error = %v, want %v", w, parErr, serialErr)
		}
	}
}

func TestParallelFirstErrorMatchesSerial(t *testing.T) {
	// Core 0 faults late (after a long local stretch), core 1 faults
	// almost immediately. The parallel scheduler may detect core 0's
	// fault first inside a window, but must surface core 1's — the
	// earlier key in the serial schedule.
	cfg := testConfig()
	late := asm(t, `
		SC_ADDI G5, G0, 400
	spin:	SC_ADDI G5, G5, -1
		BNE G5, G0, %spin
		SC_DIV G1, G5, G0
		HALT
	`)
	early := asm(t, `
		SC_ADDI G1, G0, 7
		SC_DIV G2, G1, G0
		HALT
	`)
	progs := []Program{{Core: 0, Code: late}, {Core: 1, Code: early}}
	_, _, serialErr := runWorkers(t, cfg, 1, progs...)
	if serialErr == nil || !strings.Contains(serialErr.Error(), "division by zero") {
		t.Fatalf("serial Run = %v, want division by zero", serialErr)
	}
	if !strings.Contains(serialErr.Error(), "core 1") {
		t.Fatalf("serial first error came from the wrong core: %v", serialErr)
	}
	for _, w := range []int{2, 8} {
		_, _, parErr := runWorkers(t, cfg, w, progs...)
		if parErr == nil || parErr.Error() != serialErr.Error() {
			t.Errorf("workers=%d first error = %v, want %v", w, parErr, serialErr)
		}
	}
}

func TestParallelCancelsMidSimulation(t *testing.T) {
	// Cancellation must stop the worker pool promptly and wrap ctx.Err().
	cfg := testConfig()
	long := longLoop(t)
	progs := []Program{long, {Core: 1, Code: long.Code}}
	ch, err := NewChip(&cfg, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		if err := ch.LoadProgram(p); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := ch.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	// The chip must be reusable after an aborted parallel run.
	ch.Reset()
	ch2, err := NewChip(&cfg, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	short := Program{Core: 0, Code: asm(t, "SC_ADDI G1, G0, 1\nHALT")}
	short2 := Program{Core: 1, Code: asm(t, "SC_ADDI G1, G0, 2\nHALT")}
	for _, c := range []*Chip{ch, ch2} {
		if err := c.LoadProgram(short); err != nil {
			t.Fatal(err)
		}
		if err := c.LoadProgram(short2); err != nil {
			t.Fatal(err)
		}
	}
	a, err := ch.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ch2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("post-abort rerun diverges: %+v vs %+v", a, b)
	}
}

func TestParallelPooledRerunMatchesSerial(t *testing.T) {
	// Reset + rerun on the same chip (the pooled-serving pattern) must
	// stay bit-identical run over run and across schedulers.
	cfg := testConfig()
	var progs []Program
	for core := 0; core < 4; core++ {
		prog := []isa.Instruction{}
		prog = append(prog, isa.LI(1, 0)...)
		prog = append(prog, isa.LI(2, 16)...)
		prog = append(prog, isa.LI(3, int32((core+1)%4))...)
		prog = append(prog, isa.LI(4, int32((core+3)%4))...)
		prog = append(prog, isa.Send(1, 2, 3, 9))
		prog = append(prog, isa.Recv(1, 2, 4, 9))
		prog = append(prog, isa.Halt())
		progs = append(progs, Program{Core: core, Code: prog})
	}
	_, serial, err := runWorkers(t, cfg, 1, progs...)
	if err != nil {
		t.Fatal(err)
	}
	ch, first, err := runWorkers(t, cfg, 4, progs...)
	if err != nil {
		t.Fatal(err)
	}
	for rerun := 0; rerun < 3; rerun++ {
		ch.Reset()
		again, err := ch.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("rerun %d diverges: %+v vs %+v", rerun, first, again)
		}
	}
	if !reflect.DeepEqual(serial, first) {
		t.Errorf("parallel pooled stats diverge from serial:\nserial:   %+v\nparallel: %+v", serial, first)
	}
}

// TestDefaultSchedulerIsSerial: a chip built with no worker option runs the
// serial loop on a host of any width, and so does one given 0 or 1; windows
// run only for a caller that names a count above one. runList is scratch
// that only runWindows grows, so its capacity says which route Run took.
func TestDefaultSchedulerIsSerial(t *testing.T) {
	cfg := testConfig()
	code := asm(t, "SC_ADDI G1, G0, 3\nHALT")
	for _, tc := range []struct {
		name    string
		opts    []ChipOption
		windows bool
	}{
		{"no option", nil, false},
		{"workers=0", []ChipOption{WithWorkers(0)}, false},
		{"workers=1", []ChipOption{WithWorkers(1)}, false},
		{"workers=2", []ChipOption{WithWorkers(2)}, true},
	} {
		ch, err := NewChip(&cfg, tc.opts...)
		if err != nil {
			t.Fatal(err)
		}
		for core := 0; core < 2; core++ {
			if err := ch.LoadProgram(Program{Core: core, Code: code}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := ch.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := cap(ch.runList) > 0; got != tc.windows {
			t.Errorf("%s: windowed scheduler ran = %v, want %v", tc.name, got, tc.windows)
		}
	}
}
