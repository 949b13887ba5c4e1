package isa

import (
	"maps"
	"testing"
)

func kinds(t *testing.T, code []Instruction) []Decoded {
	t.Helper()
	dec, err := Predecode(code)
	if err != nil {
		t.Fatal(err)
	}
	Fuse(dec)
	return dec
}

// TestFuseRewritesRuns: a straight-line stretch of local ops ending in a
// branch fuses into one superop; the head carries its original kind in Sub
// and the run length in SubN, and interior entries keep their kinds so
// branches into the middle of the run execute unfused.
func TestFuseRewritesRuns(t *testing.T) {
	code := []Instruction{
		ALUI(FnAdd, 1, 0, 5),    // head
		ALUI(FnAdd, 2, 1, 1),    // interior
		ALU(FnAdd, 3, 1, 2),     // interior
		Branch(OpBNE, 1, 0, -4), // control tail
		Send(1, 2, 3, 0),        // shared: never fused
		Halt(),
	}
	dec := kinds(t, code)
	h := dec[0]
	if h.Kind != KindFusedRun || h.Sub != KindScALUI || h.SubN != 4 {
		t.Fatalf("head = kind %d sub %d n %d, want fused run of 4 ALUI ops", h.Kind, h.Sub, h.SubN)
	}
	if dec[1].Kind != KindScALUI || dec[2].Kind != KindScALU || dec[3].Kind != KindBranch {
		t.Errorf("interior kinds rewritten: %d %d %d", dec[1].Kind, dec[2].Kind, dec[3].Kind)
	}
	if dec[4].Kind != KindSend || dec[5].Kind != KindHALT {
		t.Errorf("shared ops disturbed: %d %d", dec[4].Kind, dec[5].Kind)
	}
}

// TestFuseExcludesSharedAndConditionallyGlobalOps: ops that may touch
// cross-core state (mailboxes, barrier, halt bookkeeping, global memory
// through runtime register values) never join a run, and a lone local op
// between them stays unfused.
func TestFuseExcludesSharedAndConditionallyGlobalOps(t *testing.T) {
	code := []Instruction{
		Load(1, 0, 0), // SC_LD: operand register may point at global memory
		ALUI(FnAdd, 1, 1, 1),
		Store(1, 0, 0),
		Barrier(0),
		ALUI(FnAdd, 2, 2, 1),
		Halt(),
	}
	dec := kinds(t, code)
	for pc, d := range dec {
		if d.Kind == KindFusedRun {
			t.Errorf("pc %d fused; no run of length >= 2 exists here", pc)
		}
	}
}

// TestFuseIdempotent: fusing an already-fused program is a no-op —
// interior entries must not become heads of nested runs.
func TestFuseIdempotent(t *testing.T) {
	code := []Instruction{
		ALUI(FnAdd, 1, 0, 1),
		ALUI(FnAdd, 2, 0, 2),
		ALUI(FnAdd, 3, 0, 3),
		Halt(),
	}
	dec := kinds(t, code)
	want := make([]Decoded, len(dec))
	copy(want, dec)
	Fuse(dec)
	for pc := range dec {
		if dec[pc] != want[pc] {
			t.Fatalf("second Fuse changed pc %d: %+v -> %+v", pc, want[pc], dec[pc])
		}
	}
}

// TestFuseLongRunSplits: runs longer than SubN can hold split into
// back-to-back fused runs covering every op.
func TestFuseLongRunSplits(t *testing.T) {
	code := make([]Instruction, 300)
	for i := range code {
		code[i] = ALUI(FnAdd, 1, 1, 1)
	}
	code[299] = Halt()
	dec := kinds(t, code)
	if dec[0].Kind != KindFusedRun || dec[0].SubN != 255 {
		t.Fatalf("first run = kind %d n %d, want fused 255", dec[0].Kind, dec[0].SubN)
	}
	if dec[255].Kind != KindFusedRun || dec[255].SubN != 44 {
		t.Fatalf("second run = kind %d n %d, want fused 44 (pcs 255-298)", dec[255].Kind, dec[255].SubN)
	}
	if dec[299].Kind != KindHALT {
		t.Errorf("halt disturbed: %d", dec[299].Kind)
	}
}

// TestFuseEndsRunAtControlTail: a branch or jump ends the run it closes. The
// ops after it start a run of their own (a fused run replays its components
// in order, so one that covered code past a taken branch would execute code
// the branch skips), and no run covers a control op before its last slot.
func TestFuseEndsRunAtControlTail(t *testing.T) {
	add := ALUI(FnAdd, 1, 1, 1)
	for _, c := range []struct {
		name  string
		code  []Instruction
		heads map[int]uint8 // pc -> SubN of every fused run
	}{
		{"branch mid-stretch", []Instruction{add, add, Branch(OpBNE, 1, 0, -2), add, add, Halt()}, map[int]uint8{0: 3, 3: 2}},
		{"jump mid-stretch", []Instruction{add, Jmp(3), add, add, add, Halt()}, map[int]uint8{0: 2, 2: 3}},
		{"branch after a shared op", []Instruction{Send(1, 2, 3, 0), add, Branch(OpBEQ, 1, 0, 2), add, Halt()}, map[int]uint8{1: 2}},
		{"back-to-back branches", []Instruction{add, Branch(OpBNE, 1, 0, -1), Branch(OpBNE, 1, 0, -2), add, add, Halt()}, map[int]uint8{0: 2, 3: 2}},
		{"vector body then jump", []Instruction{Vec(0, 1, 2, 3, 4), add, Jmp(-2), VFill(1, 2, 0), Halt()}, map[int]uint8{0: 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dec := kinds(t, c.code)
			got := map[int]uint8{}
			for pc, d := range dec {
				if d.Kind != KindFusedRun {
					continue
				}
				got[pc] = d.SubN
				for k := pc + 1; k < pc+int(d.SubN)-1; k++ {
					if fuseTail(dec[k].Kind) {
						t.Errorf("run at pc %d (n %d) covers the control op at pc %d", pc, d.SubN, k)
					}
				}
			}
			if !maps.Equal(got, c.heads) {
				t.Fatalf("fused runs (pc: n) %v, want %v", got, c.heads)
			}
		})
	}
}
