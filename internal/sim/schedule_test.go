package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

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
	if err == nil {
		if cerr := got.Check(); cerr != nil {
			t.Errorf("inconsistent report: %v", cerr)
		}
	}
	return ch, got, err
}

// runtimeErrorCases are programs that fault: name, source, and a substring of
// the error. TestResetRestoresPowerOnState reruns them behind a prologue.
var runtimeErrorCases = []struct {
	name string
	src  string
	want string
}{
	{"div by zero", "SC_ADDI G1, G0, 5\nSC_DIV G2, G1, G0\nHALT", "division by zero"},
	{"oob store", "SC_LUI G1, 512\nSC_ST G1, G1, 0\nHALT", "out of bounds"},
	{"bad sreg", "SC_MTS 31, G0\nHALT", "special register"},
	{"bad mvm length", "CIM_MVM G0, G0, G0, 0\nHALT", "input length"},
	{"bad mvm group", "SC_ADDI G1, G0, 64\nCIM_MVM G0, G1, G0, 0x1f0\nHALT", "macro group"},
	{"send oob core", "SC_ADDI G3, G0, 30\nSC_ADDI G2, G0, 4\nSEND G0, G2, G3, 0\nHALT", "out of range"},
	// 65537 elements at stride 65536: (n-1)*stride+1 wraps int32 to 1, a
	// span that used to validate and then index 4 GiB past local memory.
	{"vector span wraps int32", "SC_LUI G1, 1\nSC_MTS 6, G1\nSC_ADDI G2, G1, 1\nVEC_RSUM8 G0, G0, G0, G2\nHALT", "out of bounds"},
	{"negative vector length", "SC_ADDI G4, G0, -5\nVEC_RELU G1, G1, G0, G4\nHALT", "negative vector length"},
	{"cim_load past the group", "SC_ADDI G1, G0, 512\nSC_MTS 9, G1\nSC_ADDI G3, G0, 1\nCIM_LOAD G0, G0, G3, G3\nHALT", "exceeds macro group"},
}

// TestRuntimeErrors: illegal encodings are rejected when the program is
// loaded, data-dependent faults when it runs — as errors, never panics — and
// a fault is the reference executor's, at the same core and pc, with the
// golden row's text.
func TestRuntimeErrors(t *testing.T) {
	for _, tc := range runtimeErrorCases {
		t.Run(tc.name, func(t *testing.T) { runtimeErrors(t, tc.name) })
	}
}

// runtimeErrors runs the named runtimeErrorCases as TestRuntimeErrors says.
func runtimeErrors(t *testing.T, names ...string) {
	cfg := testConfig()
	for _, tc := range runtimeErrorCases {
		if !slices.Contains(names, tc.name) {
			continue
		}
		ch, _ := NewChip(&cfg)
		prog := Program{Core: 0, Code: asm(tc.src)}
		err := ch.LoadProgram(prog)
		if err == nil {
			_, err = ch.Run(context.Background())
			matchRef(t, ch, 0, err, []Program{prog}, nil)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: load+Run = %v, want %q", tc.name, err, tc.want)
		}
		checkGolden(t, "error/"+tc.name, nil, err)
	}
}

func TestCycleLimit(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	ch.CycleLimit = 1000
	load(t, ch, 0, asm("spin: JMP %spin"))
	if _, err := ch.Run(runawayContext(t)); !errors.Is(err, ErrCycleLimit) {
		t.Errorf("Run = %v, want cycle limit error", err)
	}
}

// runawayContext bounds a run of an endless program that only CycleLimit
// stops: a limit left unchecked fails as the context's deadline within
// seconds, not as a test binary's timeout.
func runawayContext(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestProgramTooLarge(t *testing.T) {
	cfg := testConfig()
	ch, _ := NewChip(&cfg)
	if err := ch.LoadProgram(Program{Code: make([]isa.Instruction, cfg.Core.InstMemBytes/4+1)}); err == nil {
		t.Error("LoadProgram accepted an oversized program")
	}
}

func TestDeadlockDetected(t *testing.T) {
	_, _, err := checkSchedule(t, "deadlock", testConfig(),
		Program{Core: 0, Code: asm("SC_ADDI G2, G0, 4\nSC_ADDI G3, G0, 1\nRECV G0, G2, G3, 1\nHALT")},
		Program{Core: 1, Code: asm("HALT")})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("Run = %v, want deadlock error", err)
	}
}

// TestStatsAccounting: the figures a report derives, of a run that fills
// local memory on the transfer unit and does no MAC.
func TestStatsAccounting(t *testing.T) {
	_, stats, err := checkSchedule(t, "vfill", testConfig(), Program{Code: asm("SC_ADDI G1, G0, 10\nSC_ADDI G2, G0, 16\nVFILL G2, G1, 3\nHALT")})
	if err != nil || stats.Energy.LocalMemPJ <= 0 || stats.Utilization(int(isa.UnitTransfer)) <= 0 ||
		stats.TOPS(1.0) != 0 || stats.Seconds(1.0) <= 0 || !strings.Contains(stats.String(), "cycles") {
		t.Errorf("Run = %v, report %s", err, stats)
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
	sender := asm(`
		SC_ADDI G1, G0, 0
		SC_ADDI G2, G0, 32
		SC_ADDI G3, G0, 1
		SEND G1, G2, G3, 4
		BARRIER 2
		HALT
	`)
	receiver := asm(`
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
	ping := asm(`
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
	pong := asm(`
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

func TestScheduleSingleCore(t *testing.T) {
	// One active core never leaves the popped-core fast path of Run.
	cfg := testConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 1
	prog := Program{Core: 0, Code: asm(`
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
		return asm(fmt.Sprintf(`
			SC_ADDI G1, G0, 0
			SC_ADDI G2, G0, 4
			SC_ADDI G3, G0, %d
			RECV G1, G2, G3, 1
			HALT
		`, src))
	}
	_, _, err := checkSchedule(t, "deadlock report", cfg,
		Program{Core: 0, Code: hang(2)},
		Program{Core: 1, Code: asm("HALT")},
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
	spin := asm("spin: JMP %spin")
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
		_, err = ch.Run(runawayContext(t))
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
	late := asm(`
		SC_ADDI G5, G0, 400
	spin:	SC_ADDI G5, G5, -1
		BNE G5, G0, %spin
		SC_DIV G1, G5, G0
		HALT
	`)
	early := asm(`
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
