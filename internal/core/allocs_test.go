package core

import (
	"context"
	"runtime"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/tensor"
)

// TestWarmInferAllocs guards the pooled path on real models: once a session's
// chip has run a model, another inference on it allocates at most 64 KB — its
// result, stats report and output tensor — and no input copy or message
// payload, which are hundreds of kilobytes to megabytes an inference.
// mobilenetv2 first runs a 2-lane batch, whose payload buffers an 8-lane
// batch cannot use, then one 8-lane batch as the warm-up of the 8-lane runs
// measured. Skipped in -short and -race modes, like the other tests of the
// large zoo DNNs.
func TestWarmInferAllocs(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("runs two large zoo DNNs")
	}
	const perInference = 64 << 10
	cfg := arch.DefaultConfig()
	for _, tc := range []struct {
		model string
		warm  []int // batch sizes of the warm-up runs; the measured runs use the last
	}{
		{"resnet18", []int{1}},
		{"mobilenetv2", []int{2, 8}},
	} {
		t.Run(tc.model, func(t *testing.T) {
			g := model.Zoo(tc.model)
			compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
			if err != nil {
				t.Fatal(err)
			}
			lanes := tc.warm[len(tc.warm)-1]
			s, err := NewSession(compiled, model.NewSeededWeights(g, 1), Options{MaxPooledChips: 1, SimLanes: lanes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			inputs := make([]tensor.Tensor, lanes)
			for i := range inputs {
				inputs[i] = model.SeededInput(g.Nodes[0].OutShape, uint64(2+i))
			}
			ctx := context.Background()
			for _, b := range tc.warm {
				if _, err := s.InferBatch(ctx, inputs[:b]); err != nil {
					t.Fatal(err)
				}
			}
			const runs = 3
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if _, err := s.InferBatch(ctx, inputs); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if got := (after.TotalAlloc - before.TotalAlloc) / (runs * uint64(lanes)); got > perInference {
				t.Errorf("a warm inference allocates %d KB, want at most %d KB", got>>10, perInference>>10)
			} else {
				t.Logf("a warm inference allocates %.1f KB", float64(got)/1024)
			}
			if n := s.LaneFallbacks(); n != 0 {
				t.Errorf("%d divergence fallbacks: their one-lane reruns were measured too", n)
			}
		})
	}
}

// TestChipBacksWhatRuns guards the chip's footprint: a chip backs a macro
// group at the first CIM_LOAD into it, global memory as far as it is touched
// and a core's local memory where its programs touch it, so a
// default-architecture session's first tinymlp inference — chip build,
// weight staging and the run — costs well under a megabyte, not the 32 MB
// of local memory, 32 MB of macro groups and 16 MB of global memory the
// architecture holds. Measured on linux/amd64: 0.4 MB; 32.3 MB when local
// memory was backed at build, 80.2 MB when all three were.
func TestChipBacksWhatRuns(t *testing.T) {
	const bound = 2 << 20
	cfg := arch.DefaultConfig()
	g := model.Zoo("tinymlp")
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
	if err != nil {
		t.Fatal(err)
	}
	ws, input := model.NewSeededWeights(g, 1), model.SeededInput(g.Nodes[0].OutShape, 2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := NewSession(compiled, ws, Options{MaxPooledChips: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Infer(context.Background(), input); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("a session's first tinymlp inference allocates %.1f MB", float64(got)/(1<<20))
	if got >= bound {
		t.Errorf("a session's first tinymlp inference allocates %d bytes, want under %d", got, bound)
	}
}
