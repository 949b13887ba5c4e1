package compiler

import (
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/model"
)

// BenchmarkCompile measures cold compilation (frontend + planning +
// codegen) per model and strategy — the compile half of the cost that
// cimflow-dse reports per row as compile_ms.
func BenchmarkCompile(b *testing.B) {
	cfg := arch.DefaultConfig()
	for _, name := range []string{"resnet18", "vgg19", "mobilenetv2", "efficientnetb0"} {
		g := model.Zoo(name)
		for _, s := range allStrategies {
			b.Run(name+"/"+s.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Compile(g, &cfg, Options{Strategy: s}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCompileContextReuse measures warm compilation through a shared
// CompileContext: the frontend and planning caches are hot, as in a DSE
// sweep revisiting a graph or an Engine compiling a second strategy.
func BenchmarkCompileContextReuse(b *testing.B) {
	cfg := arch.DefaultConfig()
	for _, name := range []string{"mobilenetv2", "efficientnetb0"} {
		g := model.Zoo(name)
		cx, err := NewContext(g)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cx.Compile(&cfg, Options{Strategy: StrategyDP}); err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/dp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cx.Compile(&cfg, Options{Strategy: StrategyDP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCodegenSequential pins the sequential baseline the differential
// suite compares against, so codegen-parallelism regressions are visible.
func BenchmarkCodegenSequential(b *testing.B) {
	cfg := arch.DefaultConfig()
	g := model.Zoo("vgg19")
	cx, err := NewContext(g)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := cx.compile(&cfg, Options{Strategy: StrategyGeneric}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationClosureEnumeration compares the Alg. 1 DP over full
// dependency-closure enumeration against the linear-prefix fallback (a
// closure set enumerated under a cap of 1 forces it): richer candidate
// stages should never lose under the cost model, and the metric shows the
// gap.
func BenchmarkAblationClosureEnumeration(b *testing.B) {
	cfg := arch.DefaultConfig()
	g := model.MobileNetV2()
	for _, tc := range []struct {
		name        string
		maxClosures int
	}{{"full_closures", defaultMaxClosures}, {"prefix_fallback", 1}} {
		b.Run(tc.name, func(b *testing.B) {
			var plan *Plan
			var err error
			for i := 0; i < b.N; i++ {
				plan, err = cappedContext(b, g, tc.maxClosures).Partition(&cfg, Options{Strategy: StrategyDP})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(plan.EstimatedCycles, "est_cycles")
			b.ReportMetric(float64(len(plan.Stages)), "stages")
		})
	}
}
