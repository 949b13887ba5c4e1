package main

import (
	"strings"
	"testing"

	"cimflow"
	"cimflow/internal/isa"
	"cimflow/internal/sim"
)

// TestCoreProgram: -dump-core names a core, not a position in the program
// list, and a core without a program is an error that says which exist.
func TestCoreProgram(t *testing.T) {
	c := &cimflow.Compiled{Programs: []sim.Program{
		{Core: 4, Code: []isa.Instruction{isa.Nop(), isa.Halt()}},
		{Core: 2, Code: []isa.Instruction{isa.Halt()}},
		{Core: 7, Code: []isa.Instruction{isa.Barrier(0), isa.Barrier(1), isa.Halt()}},
	}}
	for _, tc := range []struct {
		core    int
		instrs  int    // length of the program returned
		wantErr string // or part of the error
	}{
		{core: 4, instrs: 2},
		{core: 2, instrs: 1},
		{core: 7, instrs: 3},
		{core: 0, wantErr: "cores 2 to 7"}, // position 0 holds core 4's program
		{core: 1, wantErr: "cores 2 to 7"},
		{core: 70, wantErr: "-dump-core 70"},
		{core: -2, wantErr: "cores 2 to 7"},
	} {
		code, err := coreProgram(c, tc.core)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("core %d: err = %v, want one containing %q", tc.core, err, tc.wantErr)
			}
			continue
		}
		if err != nil || len(code) != tc.instrs {
			t.Errorf("core %d: %d instructions, err %v; want %d", tc.core, len(code), err, tc.instrs)
		}
	}
	if _, err := coreProgram(&cimflow.Compiled{}, 0); err == nil {
		t.Error("a compiled model without programs: no error")
	}
}
