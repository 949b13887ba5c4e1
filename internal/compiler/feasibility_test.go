package compiler

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/model"
)

// TestProbeGridFeasibility compiles every zoo model under every strategy on
// meshes 2x2/4x4/8x8, MG sizes 2/4/8/16 and 128/512 KB of local memory (648
// points) and holds the one fit rule to what a chip loads: a point either
// compiles to programs whose memory maps pass the check LoadProgram applies,
// or fails with an *ErrInfeasible, never with an error of codegen's own.
func TestProbeGridFeasibility(t *testing.T) {
	// resnet18's layer_04_conv2 is a 3x3 conv, 256 -> 256 channels: 3
	// segments of 3x256 = 768 rows cut at 512 rows into 6 row tiles. At MG 2
	// a group computes 8x2 = 16 channels, so 16 channel tiles, and a core's
	// 16 groups hold 16/6 = 2 of them: 8 cores. A 2x2 mesh leaves each core
	// 4 channel tiles, 4x6 = 24 groups where it has 16.
	want := map[string]ErrInfeasible{
		"resnet18/2x2/mg2": {Node: "layer_04_conv2", Resource: "macro groups", Need: 24, Have: 16},
	}
	var compiled atomic.Int64
	t.Run("grid", func(t *testing.T) {
		for _, name := range zooModels {
			for _, strat := range allStrategies {
				for _, mesh := range []int{2, 4, 8} {
					for _, mg := range []int{2, 4, 8, 16} {
						for _, lm := range []int{128, 512} {
							point := fmt.Sprintf("%s/%dx%d/mg%d", name, mesh, mesh, mg)
							t.Run(fmt.Sprintf("%s/%s/lm%d", point, strat, lm), func(t *testing.T) {
								t.Parallel()
								cfg := arch.DefaultConfig().WithCoreMesh(mesh, mesh).WithMacrosPerGroup(mg).WithLocalMemBytes(lm << 10)
								c, err := Compile(model.Zoo(name), &cfg, Options{Strategy: strat})
								var inf *ErrInfeasible
								switch {
								case err == nil:
									compiled.Add(1)
									for _, p := range c.Programs {
										if err := p.Map.Check(&cfg); err != nil {
											t.Errorf("core %d: %v", p.Core, err)
										}
									}
								case !errors.As(err, &inf):
									t.Errorf("not an ErrInfeasible: %v", err)
								case point == "vgg19/8x8/mg4" && lm == 512:
									t.Errorf("vgg19 must compile at 8x8/MG 4, 512 KB: %v", err)
								}
								if w, ok := want[point]; ok && (inf == nil || *inf != w) {
									t.Errorf("got %v, want %+v", err, w)
								}
							})
						}
					}
				}
			}
		}
	})
	if n := compiled.Load(); n < 498 {
		t.Errorf("%d of 648 points compile, want >= 498", n)
	}
}
