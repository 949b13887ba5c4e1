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

// TestChipBacksWhatRuns guards the chip's footprint: a chip backs the local
// memory and macro groups each core's program declares, and of global memory
// each lane holds only the pages with scratch bytes, reading the session's
// weight tiles and pools in place for the rest. So a default-architecture
// session's first tinymlp inference — chip build, tiles and the run — costs
// well under a megabyte, not the 32 MB of local memory, 32 MB of macro groups
// and 16 MB of global memory the architecture holds (measured on
// linux/amd64: 0.4 MB; 32.3 MB when local memory was backed at build,
// 80.2 MB when all three were), and a lane of an 8-lane mobilenetv2 chip holds 0.17 MB of global
// memory of its own, not the layout's 3.6 MB. The mobilenetv2 row is skipped
// in -short and -race modes, like the other tests of the large zoo DNNs.
func TestChipBacksWhatRuns(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, tc := range []struct {
		model   string
		lanes   int
		alloc   uint64 // what the first inference may allocate; 0: no bound
		private int    // the global memory a lane may hold of its own
	}{
		{"tinymlp", 1, 2 << 20, 64 << 10},
		{"mobilenetv2", 8, 0, 512 << 10},
	} {
		t.Run(tc.model, func(t *testing.T) {
			if tc.model == "mobilenetv2" && (testing.Short() || raceEnabled) {
				t.Skip("runs a large zoo DNN")
			}
			g := model.Zoo(tc.model)
			compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
			if err != nil {
				t.Fatal(err)
			}
			ws, inputs := model.NewSeededWeights(g, 1), zooInputs(g, tc.lanes)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s, err := NewSession(compiled, ws, Options{MaxPooledChips: 1, SimLanes: tc.lanes})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.InferBatch(context.Background(), inputs); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			got := after.TotalAlloc - before.TotalAlloc
			private := idleChip(t, s).PrivateGlobalBytes()
			t.Logf("a session's first %d-lane %s inference allocates %.1f MB; a lane holds %d KB of its %d KB of global memory",
				tc.lanes, tc.model, float64(got)/(1<<20), private>>10, compiled.GlobalBytes()>>10)
			if tc.alloc > 0 && got >= tc.alloc {
				t.Errorf("the first inference allocates %d bytes, want under %d", got, tc.alloc)
			}
			if private > tc.private {
				t.Errorf("a lane holds %d bytes of global memory of its own, want at most %d", private, tc.private)
			}
		})
	}
}

// TestRestageAllocatesNothing: once a pooled chip has held two tiny sessions'
// programs, restaging it from one to the other — programs loaded, the image
// mapped, each lane's private pages copied from it — allocates nothing: the
// pages come from the chip's arena, not from new memory. serve_tiny restages
// a replica's chip per request this way.
func TestRestageAllocatesNothing(t *testing.T) {
	cfg := arch.DefaultConfig()
	pool := NewPool(1)
	var sessions []*Session
	for _, name := range []string{"tinymlp", "tinycnn"} {
		g := model.Zoo(name)
		compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyDP})
		if err != nil {
			t.Fatal(err)
		}
		s, err := pool.NewSession(compiled, model.NewSeededWeights(g, 1), Options{SimLanes: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.InferBatch(context.Background(), zooInputs(g, 8)); err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	pool.mu.Lock()
	c := pool.idle[0]
	pool.mu.Unlock()
	allocs := testing.AllocsPerRun(20, func() {
		for _, s := range sessions {
			if err := s.restage(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("restaging a pooled chip between two sessions allocates %.1f times, want none", allocs)
	}
}
