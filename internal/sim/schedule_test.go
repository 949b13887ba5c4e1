package sim

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
)

// runChip executes the given programs on a fresh chip built with opts and
// returns the chip, report and error.
func runChip(t *testing.T, cfg arch.Config, opts []ChipOption, progs ...Program) (*Chip, *Stats, error) {
	t.Helper()
	ch, err := NewChip(&cfg, opts...)
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

// checkSchedule runs the programs and holds the full report — cycles,
// instructions, energy, every per-core stat, NoC traffic — and the error text
// to the golden row "schedule/"+name, and what the cores computed to the
// reference executor. This is the sim-level arm of the contract on cross-core
// schedules; the model-level one lives in internal/core. It returns the chip,
// report and error.
func checkSchedule(t *testing.T, name string, cfg arch.Config, progs ...Program) (*Chip, *Stats, error) {
	t.Helper()
	ch, got, err := runChip(t, cfg, nil, progs...)
	checkGolden(t, "schedule/"+name, got, err)
	matchRef(t, ch, 0, err, progs, nil)
	return ch, got, err
}

func TestScheduleMessagingRing(t *testing.T) {
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
	if _, _, err := checkSchedule(t, "ring", cfg, progs...); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleBarrierWithMessageInFlight(t *testing.T) {
	// The barrier starts forming while core 0's message is still in
	// flight: core 0 sends and immediately barriers; core 1 barriers
	// first and only then receives. The send must be delivered before the
	// barrier forms its participant count, and the receive must observe
	// the (possibly post-release) arrival time.
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
	if _, _, err := checkSchedule(t, "barrier with message in flight", cfg,
		Program{Core: 0, Code: sender}, Program{Core: 1, Code: receiver}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulePingPong(t *testing.T) {
	// Two cores interacting every few cycles: a strict request/response
	// ping-pong, so the schedule alternates cores on nearly every step.
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
	if _, _, err := checkSchedule(t, "ping-pong", cfg,
		Program{Core: 0, Code: ping}, Program{Core: 1, Code: pong}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleFusedRunStopsBeforeSend(t *testing.T) {
	// Core 0 computes for a while and then sends to core 3; core 1 sends to
	// core 3 early. XY routing puts both messages on link 1->3, which core
	// 1's must reserve first. Fusion runs core 0's straight-line stretch as
	// one step, which is exact only because the run ends before its SEND:
	// a SEND inside the run would reserve the link at core 0's later time
	// ahead of core 1's earlier message.
	cfg := testConfig()
	late := asm(t, `
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 256
		SC_ADDI G3, G0, 3
	`+strings.Repeat("SC_ADDI G5, G5, 1\n", 40)+`
		SEND G1, G2, G3, 1
		HALT
	`)
	early := asm(t, `
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 256
		SC_ADDI G3, G0, 3
		SEND G1, G2, G3, 2
		HALT
	`)
	sink := asm(t, `
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 256
		SC_ADDI G3, G0, 1
		SC_ADDI G4, G0, 0
		RECV G1, G2, G3, 2
		RECV G1, G2, G4, 1
		HALT
	`)
	if _, _, err := checkSchedule(t, "fused run stops before send", cfg,
		Program{Core: 0, Code: late}, Program{Core: 1, Code: early}, Program{Core: 3, Code: sink}); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleSingleCore(t *testing.T) {
	// One active core never leaves the popped-core fast path of Run.
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
	if _, _, err := checkSchedule(t, "single core", cfg, prog); err != nil {
		t.Fatal(err)
	}
}

func TestScheduleDeadlockReportSorted(t *testing.T) {
	// Three of four cores hang on receives that never complete. The
	// deadlock report must list the stuck cores in ascending core-id order.
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
	_, _, err := checkSchedule(t, "deadlock report", cfg,
		Program{Core: 0, Code: hang(2)},
		Program{Core: 1, Code: asm(t, "HALT")},
		Program{Core: 2, Code: hang(3)},
		Program{Core: 3, Code: hang(0)},
	)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("Run = %v, want deadlock", err)
	}
	// The stuck-core list must mention cores 0, 2, 3 in that order.
	msg := err.Error()
	i0 := strings.Index(msg, "core 0 pc")
	i2 := strings.Index(msg, "core 2 pc")
	i3 := strings.Index(msg, "core 3 pc")
	if i0 < 0 || i2 < 0 || i3 < 0 || !(i0 < i2 && i2 < i3) {
		t.Errorf("deadlock report not in sorted core order: %s", msg)
	}
}

func TestScheduleCycleLimit(t *testing.T) {
	// Two runaway cores: the limit error must come from the core the
	// schedule trips first (the smaller (time, id) key), core 0.
	cfg := testConfig()
	spin := asm(t, "spin: JMP %spin")
	run := func(opts ...ChipOption) error {
		ch, err := NewChip(&cfg, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ch.CycleLimit = 1000
		for core := 0; core < 2; core++ {
			if err := ch.LoadProgram(Program{Core: core, Code: spin}); err != nil {
				t.Fatal(err)
			}
		}
		_, err = ch.Run(context.Background())
		return err
	}
	err := run()
	if err == nil || !strings.Contains(err.Error(), "core 0 exceeded the cycle limit") {
		t.Fatalf("Run = %v, want core 0's cycle limit error", err)
	}
	checkGolden(t, "schedule/cycle limit", nil, err)
}

func TestScheduleFirstError(t *testing.T) {
	// Core 0 faults late (after a long local stretch), core 1 faults
	// almost immediately: the error surfaced is core 1's, the earlier key
	// in the schedule.
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
	_, _, err := checkSchedule(t, "first error", cfg, Program{Core: 0, Code: late}, Program{Core: 1, Code: early})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("Run = %v, want division by zero", err)
	}
	if !strings.Contains(err.Error(), "core 1") {
		t.Fatalf("first error came from the wrong core: %v", err)
	}
}

func TestSchedulePooledRerun(t *testing.T) {
	// Reset + rerun on the same chip (the pooled-serving pattern) must
	// stay bit-identical run over run, and to the golden row.
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
	ch, first, err := checkSchedule(t, "pooled rerun", cfg, progs...)
	if err != nil {
		t.Fatal(err)
	}
	for rerun := 0; rerun < 3; rerun++ {
		ch.Reset()
		if err := ch.CheckPayloadPool(); err != nil {
			t.Fatal(err)
		}
		again, err := ch.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("rerun %d diverges: %+v vs %+v", rerun, first, again)
		}
	}
}
