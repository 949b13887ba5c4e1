package core

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

// TestRigMatchesFreshChips: one Rig runs a sequence of programs — models and
// strategies whose global layouts shrink and grow, MG sizes 8 -> 16 -> 4 -> 16
// and flit widths 8 -> 16, a run aborted at the cycle limit just before the
// architecture changes — and every run equals the first run of a fresh
// session, outputs and full Stats or error text. After each run the rig's
// chip holds in global memory byte for byte what the fresh chip holds:
// nothing a larger program left past a smaller one's layout survives. The
// rig builds one chip and retargets it.
func TestRigMatchesFreshChips(t *testing.T) {
	def := arch.DefaultConfig()
	mg16, mg4 := def.WithMacrosPerGroup(16), def.WithMacrosPerGroup(4)
	flit16 := mg16.WithFlitBytes(16)
	dp, generic := compiler.StrategyDP, compiler.StrategyGeneric
	steps := []struct {
		model string
		strat compiler.Strategy
		cfg   *arch.Config
		limit int64
	}{
		{"tinyresnet", dp, &def, 0},
		{"tinymlp", generic, &def, 0},
		{"tinycnn", dp, &def, 200},
		{"tinycnn", dp, &mg16, 0},
		{"tinymobile", generic, &mg4, 0},
		{"tinyresnet", dp, &mg16, 0},
		{"tinymlp", dp, &mg16, 0},
		{"tinycnn", generic, &flit16, 0},
	}
	ctx := context.Background()
	var r Rig
	var first *sim.Chip
	span, shrunk := 0, false
	for i, st := range steps {
		label := fmt.Sprintf("step %d %s/%v/mg%d", i, st.model, st.strat, st.cfg.Core.MacrosPerGroup)
		g := model.Zoo(st.model)
		compiled, err := compiler.Compile(g, st.cfg, compiler.Options{Strategy: st.strat})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ws := model.NewSeededWeights(g, 1)
		input := model.SeededInput(g.Nodes[0].OutShape, uint64(2+i))
		opt := Options{CycleLimit: st.limit}

		got, err := r.Simulate(ctx, compiled, ws, input, opt)
		fresh, ferr := NewSession(compiled, ws, Options{CycleLimit: st.limit, MaxPooledChips: 1})
		if ferr != nil {
			t.Fatal(ferr)
		}
		want, wantErr := fresh.Infer(ctx, input)
		if st.limit != 0 {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() || !strings.Contains(err.Error(), "cycle limit") {
				t.Fatalf("%s: rig error %v, fresh error %v, want the same cycle-limit abort", label, err, wantErr)
			}
		} else {
			if err != nil || wantErr != nil {
				t.Fatalf("%s: rig %v, fresh %v", label, err, wantErr)
			}
			assertResultsEqual(t, label, want, got)
		}

		if i > 0 && r.ch != first {
			t.Errorf("%s: rig built another chip", label)
		}
		if i == 0 {
			first = r.ch
		} else if st.cfg == steps[i-1].cfg && compiled.GlobalBytes() < span {
			shrunk = true
		}
		span = max(span, compiled.GlobalBytes())

		// Both chips hold the default 16 MB of global memory; every tiny layout
		// fits it, so [0, span) covers all the rig's programs ever wrote.
		fch := <-fresh.free
		a, err := r.ch.ReadGlobal(0, span)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fch.ReadGlobal(0, span)
		if err != nil {
			t.Fatal(err)
		}
		if i := firstDiff(a, b); i >= 0 {
			t.Errorf("%s: global byte %d is %#x on the rig's chip, %#x on a fresh one (layout %d bytes)",
				label, i, a[i], b[i], compiled.GlobalBytes())
		}
	}
	if !shrunk {
		t.Fatal("no program reused a chip after a larger layout: the scrub is untested")
	}
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}
