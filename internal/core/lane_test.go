package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/tensor"
)

// TestLaneEquivalence is the differential proof behind lane-batched
// execution: every model-zoo graph under every compilation strategy runs a
// batch of distinct inputs through one lane-batched chip simulation, and
// each lane's Result must agree byte for byte — output tensor, cycles,
// instructions, MACs, energy breakdown, per-core stats and NoC counters —
// with a serial per-input run of the same compiled model (the zoo
// fixture's references, input 0 of which TestInterpreterEquivalence holds
// to the golden executor and table). Occupancy varies
// (1, 2, full) on the same pooled chip, covering SetLanes shrink/regrow. In
// -short and -race modes the four large benchmark DNNs are skipped; the
// tiny networks still cover every operator lowering.
func TestLaneEquivalence(t *testing.T) {
	for _, c := range zooCases(arch.DefaultConfig()) {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			compiled := c.compiled(t)
			// References: the fixture's serial per-input runs.
			refs := c.refs(t, zooLanes)
			g := compiled.Graph
			s, err := NewSession(compiled, model.NewSeededWeights(g, zooWeights), Options{MaxPooledChips: 1, SimLanes: zooLanes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			inputs := zooInputs(g, zooLanes)
			// Occupancies 1, 2 and full reuse the one pooled chip, so
			// stale lane state from a wider run must never leak into a
			// narrower or regrown one.
			for _, b := range []int{1, 2, zooLanes, zooLanes} {
				res, err := s.InferBatch(context.Background(), inputs[:b])
				if err != nil {
					t.Fatalf("lanes=%d: %v", b, err)
				}
				for l := 0; l < b; l++ {
					assertResultsEqual(t, fmt.Sprintf("lanes=%d lane=%d", b, l), refs[l], res[l])
				}
			}
			if n := s.LaneFallbacks(); n != 0 {
				t.Errorf("%d unexpected divergence fallbacks", n)
			}
		})
	}
}

// TestLaneDivergenceFallbackSplit forces lanes of a batched run through the
// serial fallback path (via the test hook standing in for data-dependent
// control divergence) and requires the re-run lanes to match serial
// per-input references exactly, with the fallback counter reflecting the
// split.
func TestLaneDivergenceFallbackSplit(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyResNet()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyDP})
	if err != nil {
		t.Fatal(err)
	}
	ws := model.NewSeededWeights(g, 1)
	const lanes = 4
	inputs := make([]tensor.Tensor, lanes)
	for i := range inputs {
		inputs[i] = model.SeededInput(g.Nodes[0].OutShape, uint64(2+i))
	}
	serial, err := NewSession(compiled, ws, Options{MaxPooledChips: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()
	refs := make([]*Result, lanes)
	for i, in := range inputs {
		if refs[i], err = serial.Infer(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}

	s, err := NewSession(compiled, ws, Options{MaxPooledChips: 1, SimLanes: lanes})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.testForceDiverge = func(b int) []int { return []int{1, 3} }
	res, err := s.InferBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < lanes; l++ {
		assertResultsEqual(t, fmt.Sprintf("forced-divergence lane=%d", l), refs[l], res[l])
	}
	if n := s.LaneFallbacks(); n != 2 {
		t.Errorf("LaneFallbacks = %d, want 2", n)
	}
	// Occupancy histogram: one 4-lane batched run plus two serial fallback
	// re-runs.
	occ := s.LaneOccupancy()
	if occ[lanes] != 1 || occ[1] != 2 {
		t.Errorf("lane occupancy %v, want one %d-lane run and two serial fallbacks", occ, lanes)
	}
}

// TestLaneOptionsValidated pins the SimLanes bounds: a capacity beyond the
// simulator's divergence mask is rejected at session construction, and the
// facade-level accessors report the normalized value.
func TestLaneOptionsValidated(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyMLP()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ws := model.NewSeededWeights(g, 1)
	if _, err := NewSession(compiled, ws, Options{SimLanes: 65}); err == nil {
		t.Fatal("SimLanes=65 accepted, want error")
	}
	s, err := NewSession(compiled, ws, Options{SimLanes: -3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.SimLanes(); got != 1 {
		t.Errorf("SimLanes() = %d after negative option, want 1", got)
	}
	if !reflect.DeepEqual(s.LaneOccupancy(), []int64{0, 0}) {
		t.Errorf("fresh LaneOccupancy = %v, want [0 0]", s.LaneOccupancy())
	}
}
