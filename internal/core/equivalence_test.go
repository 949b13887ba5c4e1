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

// TestInterpreterEquivalence is the differential proof behind the
// predecoded execution pipeline and the conservative-window parallel
// scheduler: every model-zoo graph under every compilation strategy is
// simulated on the legacy instruction-at-a-time interpreter (the
// reference), on the serial predecoded dispatch loop, and on the windowed
// parallel scheduler at two pool sizes — and all runs must agree byte for
// byte on the output tensor and exactly on cycles, instruction counts,
// MACs, the full energy breakdown and every per-core stat. In -short mode
// the four large benchmark DNNs are skipped; the tiny networks still cover
// every operator lowering.
func TestInterpreterEquivalence(t *testing.T) {
	cfg := arch.DefaultConfig()
	large := map[string]bool{"resnet18": true, "vgg19": true, "mobilenetv2": true, "efficientnetb0": true}
	golden := newGoldenChecker(t)
	for _, name := range model.ZooNames() {
		if (testing.Short() || raceEnabled) && large[name] {
			continue
		}
		g := model.Zoo(name)
		for _, strat := range []compiler.Strategy{
			compiler.StrategyGeneric, compiler.StrategyDuplication, compiler.StrategyDP,
		} {
			t.Run(name+"/"+strat.String(), func(t *testing.T) {
				t.Parallel()
				// One compile feeds every scheduler: predecoded programs
				// ride along in the artifact and the legacy chip ignores them.
				compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				ws := model.NewSeededWeights(g, 1)
				input := model.SeededInput(g.Nodes[0].OutShape, 2)

				legacy, err := Simulate(context.Background(), compiled, ws, input,
					Options{LegacyInterpreter: true})
				if err != nil {
					t.Fatalf("legacy interpreter: %v", err)
				}
				serial, err := Simulate(context.Background(), compiled, ws, input,
					Options{SimWorkers: 1})
				if err != nil {
					t.Fatalf("serial predecoded: %v", err)
				}
				assertResultsEqual(t, "serial", legacy, serial)
				golden.check(t, name+"/"+strat.String(), serial.Stats)
				for _, w := range []int{2, 8} {
					parallel, err := Simulate(context.Background(), compiled, ws, input,
						Options{SimWorkers: w})
					if err != nil {
						t.Fatalf("parallel workers=%d: %v", w, err)
					}
					assertResultsEqual(t, fmt.Sprintf("parallel(workers=%d)", w), legacy, parallel)
				}
			})
		}
	}
}

// TestInterpreterEquivalencePooled proves the equivalence holds on reused
// (pooled, Reset) chips as well as fresh ones: a session run twice under
// each scheduler must reproduce the first run exactly, and all schedulers
// must agree with each other.
func TestInterpreterEquivalencePooled(t *testing.T) {
	cfg := arch.DefaultConfig()
	g := model.TinyResNet()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyDP})
	if err != nil {
		t.Fatal(err)
	}
	ws := model.NewSeededWeights(g, 1)
	input := model.SeededInput(g.Nodes[0].OutShape, 2)
	var ref *Result
	for _, opt := range []Options{
		{LegacyInterpreter: true},
		{SimWorkers: 1},
		{SimWorkers: 2},
		{SimWorkers: 8},
	} {
		opt.MaxPooledChips = 1
		s, err := NewSession(compiled, ws, opt)
		if err != nil {
			t.Fatal(err)
		}
		first, err := s.Infer(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}
		second, err := s.Infer(context.Background(), input)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("legacy=%v workers=%d", opt.LegacyInterpreter, opt.SimWorkers)
		if !reflect.DeepEqual(first.Output.Data, second.Output.Data) ||
			first.Stats.Cycles != second.Stats.Cycles {
			t.Errorf("pooled rerun diverged (%s)", label)
		}
		if ref == nil {
			ref = first
		} else {
			assertResultsEqual(t, label, ref, first)
		}
		s.Close()
	}
}

// TestInterpreterEquivalenceGroupTail runs a whole chip at macro-group
// widths that between them use every channel tile of the MVM kernel: 9 (3
// macros of 24/8 channels: one 8-wide tile and a channel the kernel blocks do
// not cover), 32, 40 (32 + 8), 72 (64 + 8) and 128 (two 64-wide tiles); the
// default 64 is every other test. At each width the legacy interpreter, the
// predecoded handlers and every lane of an eight-lane batch must agree
// exactly, outputs and full Stats.
func TestInterpreterEquivalenceGroupTail(t *testing.T) {
	for _, shape := range []struct{ macros, cols, chans int }{
		{3, 24, 9}, {4, 64, 32}, {5, 64, 40}, {9, 64, 72}, {16, 64, 128},
	} {
		t.Run(fmt.Sprintf("chans=%d", shape.chans), func(t *testing.T) {
			t.Parallel()
			cfg := arch.DefaultConfig()
			cfg.Core.MacrosPerGroup, cfg.Unit.MacroCols = shape.macros, shape.cols
			if cfg.GroupChannels() != shape.chans {
				t.Fatalf("GroupChannels() = %d, want %d", cfg.GroupChannels(), shape.chans)
			}
			g := model.TinyResNet()
			compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
			if err != nil {
				t.Fatal(err)
			}
			ws := model.NewSeededWeights(g, 1)
			const lanes = 8
			inputs := make([]tensor.Tensor, lanes)
			for i := range inputs {
				inputs[i] = model.SeededInput(g.Nodes[0].OutShape, uint64(2+i))
			}
			s, err := NewSession(compiled, ws, Options{MaxPooledChips: 1, SimLanes: lanes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			batch, err := s.InferBatch(context.Background(), inputs)
			if err != nil {
				t.Fatal(err)
			}
			for l, in := range inputs {
				legacy, err := Simulate(context.Background(), compiled, ws, in, Options{LegacyInterpreter: true})
				if err != nil {
					t.Fatalf("legacy interpreter, input %d: %v", l, err)
				}
				serial, err := Simulate(context.Background(), compiled, ws, in, Options{SimWorkers: 1})
				if err != nil {
					t.Fatalf("serial predecoded, input %d: %v", l, err)
				}
				assertResultsEqual(t, fmt.Sprintf("serial input %d", l), legacy, serial)
				assertResultsEqual(t, fmt.Sprintf("lane %d", l), legacy, batch[l])
			}
		})
	}
}
