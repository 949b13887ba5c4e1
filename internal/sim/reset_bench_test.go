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

// stagedChip builds a chip of the given lanes for the zoo model compiled
// with strat at cfg, loads its programs and maps its seeded weights' tiles,
// as a session stages a chip, and returns it with run, which stages one distinct seeded input per lane onto it (after
// zeroing the scratch ranges, as a session does) and runs it.
func stagedChip(tb testing.TB, cfg *arch.Config, name string, strat compiler.Strategy, lanes int) (*sim.Chip, func()) {
	tb.Helper()
	g := model.Zoo(name)
	compiled, err := compiler.Compile(g, cfg, compiler.Options{Strategy: strat})
	if err != nil {
		tb.Fatal(err)
	}
	static, err := compiled.StaticSegments(compiler.NewWeightTiles(model.NewSeededWeights(g, 1)))
	if err != nil {
		tb.Fatal(err)
	}
	ch, err := sim.NewChip(cfg, sim.WithLanes(lanes))
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range compiled.Programs {
		if err := ch.LoadProgram(p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := ch.MapGlobal(compiled.GlobalBytes(), static, compiled.ScratchRanges()); err != nil {
		tb.Fatal(err)
	}
	inputs := make([]sim.GlobalSegment, lanes)
	for l := range inputs {
		if inputs[l], err = compiled.InputSegment(model.SeededInput(g.Nodes[0].OutShape, uint64(2+l))); err != nil {
			tb.Fatal(err)
		}
	}
	return ch, func() {
		for _, r := range compiled.ScratchRanges() {
			if err := ch.ZeroGlobal(r[0], r[1]); err != nil {
				tb.Fatal(err)
			}
		}
		if err := ch.SetLanes(lanes); err != nil {
			tb.Fatal(err)
		}
		for l, seg := range inputs {
			if err := ch.InitGlobalLane(l, seg); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := ch.Run(context.Background()); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkChipReset times Chip.Reset after one inference, which is what a
// pooled session pays on every acquire: the tiny models as cimflow-serve
// compiles them (dp), resnet18 one lane and mobilenetv2 in eight as the warm
// benchmark workloads run them (generic). The inference itself and the
// session's ZeroGlobal are outside the timer. Beside ns/op it reports what
// the reset cleared — dirty pages and macro groups over all 64 cores, and
// megabytes, pages over all lanes and groups once, as lanes share them —
// against the up to 64 MB per lane (32 MB of local memory and 32 MB of macro
// groups, once a program has backed them all) that clearing by size could
// cost, the local memory per lane that one dirty [first, last] window per
// core would span instead of a page bitmap (layouts use both ends of local
// memory), the local memory per lane the chip backs of its 32 MB, and the
// macro-group megabytes it backs over all lanes. Each iteration re-runs the
// model:
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
			ch, run := stagedChip(b, &cfg, bc.model, bc.strat, bc.lanes)
			var fp sim.ResetFootprint
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				run()
				fp = ch.ResetFootprint()
				b.StartTimer()
				ch.Reset()
			}
			b.ReportMetric(float64(fp.Pages), "pages")
			b.ReportMetric(float64(fp.Groups), "groups")
			b.ReportMetric(float64(fp.Bytes)/(1<<20), "MB-cleared")
			b.ReportMetric(float64(fp.HullBytes)/(1<<20), "MB-hull/lane")
			b.ReportMetric(float64(fp.Backed)/(1<<20), "MB-backed/lane")
			b.ReportMetric(float64(fp.GroupBytes)/(1<<20), "MB-groups")
		})
	}
}

// TestLaneGroupFootprint: lanes that load the same weights share one copy of
// each macro group, so an 8-lane tinymobile chip running 8 distinct inputs
// backs exactly the macro-group bytes a one-lane chip does.
func TestLaneGroupFootprint(t *testing.T) {
	cfg := arch.DefaultConfig()
	var groupBytes [2]int64
	for i, lanes := range []int{1, 8} {
		ch, run := stagedChip(t, &cfg, "tinymobile", compiler.StrategyGeneric, lanes)
		run()
		if groupBytes[i] = ch.ResetFootprint().GroupBytes; groupBytes[i] == 0 {
			t.Fatalf("%d lanes: no macro group backed", lanes)
		}
	}
	if groupBytes[0] != groupBytes[1] {
		t.Fatalf("8 lanes back %d bytes of macro groups, one lane %d", groupBytes[1], groupBytes[0])
	}
}
