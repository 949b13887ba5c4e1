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

// freshRun is one inference on a new session of its own, and so on a new
// chip: the reference a pooled, reused or lane-batched run is held to.
func freshRun(ctx context.Context, compiled *compiler.Compiled, ws model.WeightStore, in tensor.Tensor) (*Result, error) {
	s, err := NewSession(compiled, ws, Options{})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.Infer(ctx, in)
}

// assertResultsEqual requires two simulation runs to agree byte for byte on
// the output tensor and exactly on cycles, instruction counts, MACs, the
// full energy breakdown, every per-core stat and the NoC traffic counters,
// and each report to satisfy the simulator's own conservation laws.
func assertResultsEqual(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	for _, r := range []*Result{ref, got} {
		if err := r.Stats.Check(); err != nil {
			t.Errorf("%s: inconsistent report: %v", label, err)
		}
	}
	if !reflect.DeepEqual(ref.Output.Data, got.Output.Data) {
		t.Errorf("%s: output tensors differ", label)
	}
	if ref.Stats.Cycles != got.Stats.Cycles {
		t.Errorf("%s: cycles: ref %d, got %d", label, ref.Stats.Cycles, got.Stats.Cycles)
	}
	if ref.Stats.Instructions != got.Stats.Instructions {
		t.Errorf("%s: instructions: ref %d, got %d",
			label, ref.Stats.Instructions, got.Stats.Instructions)
	}
	if ref.Stats.MACs != got.Stats.MACs {
		t.Errorf("%s: MACs: ref %d, got %d", label, ref.Stats.MACs, got.Stats.MACs)
	}
	if ref.Stats.Energy != got.Stats.Energy {
		t.Errorf("%s: energy breakdown differs:\nref %+v\ngot %+v",
			label, ref.Stats.Energy, got.Stats.Energy)
	}
	if !reflect.DeepEqual(ref.Stats.Cores, got.Stats.Cores) {
		for i := range ref.Stats.Cores {
			if !reflect.DeepEqual(ref.Stats.Cores[i], got.Stats.Cores[i]) {
				t.Errorf("%s: core %d stats differ:\nref %+v\ngot %+v",
					label, i, ref.Stats.Cores[i], got.Stats.Cores[i])
				break
			}
		}
	}
	if ref.Stats.NoCBytes != got.Stats.NoCBytes ||
		ref.Stats.NoCByteHops != got.Stats.NoCByteHops ||
		ref.Stats.GlobalBytes != got.Stats.GlobalBytes {
		t.Errorf("%s: NoC traffic stats differ", label)
	}
}

// TestInterpreterEquivalence is the proof behind the simulator on compiled
// programs: every model-zoo graph under every compilation strategy is
// simulated, and the output tensor must be the golden executor's
// (model.Execute) byte for byte, the report consistent (Stats.Check) and
// exactly the golden row — cycles, instruction counts, MACs, the full energy
// breakdown, NoC traffic and, through its digests, every per-core stat. The
// run is the case's first serial reference in the zoo fixture, input 0 on a
// new chip, which TestLaneEquivalence holds its lanes to. In -short and
// -race mode the four large benchmark DNNs are skipped.
func TestInterpreterEquivalence(t *testing.T) {
	golden := newGoldenChecker(t)
	for _, c := range zooCases(arch.DefaultConfig()) {
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			res := c.refs(t, zooLanes)[0]
			if err := res.Stats.Check(); err != nil {
				t.Errorf("inconsistent report: %v", err)
			}
			assertMatchesExecute(t, "simulated", c.compiled(t), 0, res)
			golden.check(t, c.String(), res.Stats)
		})
	}
}

// TestInterpreterEquivalenceSmallChip runs every zoo graph the compiler
// fits on a 4x4 mesh of 4-macro groups, where plans have many stages and
// cores reuse their memory most, under every strategy: each compiled core
// declares the memory it touches, so no run may fault: the output must be
// the golden executor's, the report consistent, and lane 0 of an eight-lane
// batch the one-lane run exactly. vgg19, the slowest, runs under dp only.
// Skipped in -short mode.
func TestInterpreterEquivalenceSmallChip(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("large models on a constrained chip")
	}
	for _, c := range zooCases(arch.DefaultConfig().WithCoreMesh(4, 4).WithMacrosPerGroup(4)) {
		if c.model == "vgg19" && c.strat != compiler.StrategyDP {
			continue
		}
		t.Run(c.String(), func(t *testing.T) {
			t.Parallel()
			compiled := c.compiled(t)
			res := c.refs(t, 1)[0]
			if err := res.Stats.Check(); err != nil {
				t.Errorf("inconsistent report: %v", err)
			}
			assertMatchesExecute(t, "simulated", compiled, 0, res)
			g := compiled.Graph
			s, err := NewSession(compiled, model.NewSeededWeights(g, zooWeights), Options{MaxPooledChips: 1, SimLanes: zooLanes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			batch, err := s.InferBatch(context.Background(), zooInputs(g, zooLanes))
			if err != nil {
				t.Fatal(err)
			}
			assertResultsEqual(t, "lane 0 of 8", res, batch[0])
		})
	}
}

// TestInterpreterEquivalenceGroupTail runs a whole chip at macro-group
// widths that between them use every channel tile of the MVM kernel: 9 (3
// macros of 24/8 channels: one 8-wide tile and a channel the kernel blocks do
// not cover), 32, 40 (32 + 8), 72 (64 + 8) and 128 (two 64-wide tiles); the
// default 64 is every other test. At each width every lane of an eight-lane
// batch must be a fresh-chip one-lane run of its input exactly, outputs and
// full Stats, the output the golden executor's, and the first input's report
// its "grouptail/chans=N" row of the golden table.
func TestInterpreterEquivalenceGroupTail(t *testing.T) {
	golden := newGoldenChecker(t)
	for _, shape := range groupTailShapes {
		t.Run(fmt.Sprintf("chans=%d", shape.chans), func(t *testing.T) {
			t.Parallel()
			cfg := arch.DefaultConfig()
			cfg.Core.MacrosPerGroup, cfg.Unit.MacroCols = shape.macros, shape.cols
			if cfg.GroupChannels() != shape.chans {
				t.Fatalf("GroupChannels() = %d, want %d", cfg.GroupChannels(), shape.chans)
			}
			compiled := zooCase{"tinyresnet", compiler.StrategyGeneric, cfg}.compiled(t)
			g := compiled.Graph
			ws := model.NewSeededWeights(g, zooWeights)
			inputs := zooInputs(g, zooLanes)
			s, err := NewSession(compiled, ws, Options{MaxPooledChips: 1, SimLanes: zooLanes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			batch, err := s.InferBatch(context.Background(), inputs)
			if err != nil {
				t.Fatal(err)
			}
			for l, in := range inputs {
				alone, err := freshRun(context.Background(), compiled, ws, in)
				if err != nil {
					t.Fatalf("input %d: %v", l, err)
				}
				assertResultsEqual(t, fmt.Sprintf("lane %d", l), alone, batch[l])
				assertMatchesExecute(t, fmt.Sprintf("input %d", l), compiled, l, alone)
				if l == 0 {
					golden.check(t, fmt.Sprintf("grouptail/chans=%d", shape.chans), alone.Stats)
				}
			}
		})
	}
}

// groupTailShapes are the macro-group geometries of
// TestInterpreterEquivalenceGroupTail: macros per group, macro columns, and
// the group width they make.
var groupTailShapes = []struct{ macros, cols, chans int }{
	{3, 24, 9}, {4, 64, 32}, {5, 64, 40}, {9, 64, 72}, {16, 64, 128},
}
