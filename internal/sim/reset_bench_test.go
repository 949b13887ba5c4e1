package sim_test

import (
	"context"
	"fmt"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

// BenchmarkChipReset times Chip.Reset after one inference, which is what a
// pooled session pays on every acquire: the tiny models as cimflow-serve
// compiles them (dp), resnet18 one lane and mobilenetv2 in eight as the warm
// benchmark workloads run them (generic). The inference itself and the
// session's ZeroGlobal are outside the timer. Beside ns/op it reports what
// the reset cleared — dirty pages and macro groups over all 64 cores, and
// megabytes over all lanes — against the 64 MB per allocated lane that
// clearing by size costs, and the local memory per lane that one dirty
// [first, last] window per core would span instead of a page bitmap (layouts
// use both ends of local memory). Each iteration re-runs the model:
//
//	go test -run '^$' -bench ChipReset -benchtime 20x ./internal/sim
func BenchmarkChipReset(b *testing.B) {
	cfg := arch.DefaultConfig()
	for _, bc := range []struct {
		model string
		strat compiler.Strategy
		lanes int
	}{
		{"tinymlp", compiler.StrategyDP, 1},
		{"tinycnn", compiler.StrategyDP, 1},
		{"tinyresnet", compiler.StrategyDP, 1},
		{"tinymobile", compiler.StrategyDP, 1},
		{"tinyse", compiler.StrategyDP, 1},
		{"resnet18", compiler.StrategyGeneric, 1},
		{"mobilenetv2", compiler.StrategyGeneric, 8},
	} {
		b.Run(fmt.Sprintf("%s/lanes=%d", bc.model, bc.lanes), func(b *testing.B) {
			g := model.Zoo(bc.model)
			compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: bc.strat})
			if err != nil {
				b.Fatal(err)
			}
			static, err := compiled.StaticInit(model.NewSeededWeights(g, 1))
			if err != nil {
				b.Fatal(err)
			}
			ch, err := sim.NewChip(&cfg, sim.WithLanes(bc.lanes))
			if err != nil {
				b.Fatal(err)
			}
			ch.EnsureGlobal(compiled.GlobalBytes())
			for _, p := range compiled.Programs {
				if err := ch.LoadProgram(p); err != nil {
					b.Fatal(err)
				}
			}
			for _, seg := range static {
				if err := ch.InitGlobal(seg); err != nil {
					b.Fatal(err)
				}
			}
			inputs := make([]sim.GlobalSegment, bc.lanes)
			for l := range inputs {
				if inputs[l], err = compiled.InputSegment(model.SeededInput(g.Nodes[0].OutShape, uint64(2+l))); err != nil {
					b.Fatal(err)
				}
			}
			var fp sim.ResetFootprint
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, r := range compiled.ScratchRanges() {
					if err := ch.ZeroGlobal(r[0], r[1]); err != nil {
						b.Fatal(err)
					}
				}
				if err := ch.SetLanes(bc.lanes); err != nil {
					b.Fatal(err)
				}
				for l, seg := range inputs {
					if err := ch.InitGlobalLane(l, seg); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := ch.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				fp = ch.ResetFootprint()
				b.StartTimer()
				ch.Reset()
			}
			b.ReportMetric(float64(fp.Pages), "pages")
			b.ReportMetric(float64(fp.Groups), "groups")
			b.ReportMetric(float64(fp.Bytes)/(1<<20), "MB-cleared")
			b.ReportMetric(float64(fp.HullBytes)/(1<<20), "MB-hull/lane")
		})
	}
}
