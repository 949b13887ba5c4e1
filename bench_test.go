// The Table I peak, micro-benchmarks of the compiler, simulator, NoC model
// and golden executor, and the ablations. The paper's figures (Sec. IV) are
// regenerated by `cimflow-dse -fig`, which fails on any point that does not
// compile and simulate; EXPERIMENTS.md records paper-vs-measured.
package cimflow_test

import (
	"context"
	"fmt"
	"testing"

	"cimflow"
	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/isa"
	"cimflow/internal/model"
	"cimflow/internal/noc"
	"cimflow/internal/sim"
)

// BenchmarkTableIPeak reports the default (Table I) architecture's derived
// peak throughput — the capacity context for every other number.
func BenchmarkTableIPeak(b *testing.B) {
	cfg := cimflow.DefaultConfig()
	var tops float64
	for i := 0; i < b.N; i++ {
		tops = cfg.PeakTOPS()
	}
	b.ReportMetric(tops, "peak_TOPS")
	b.ReportMetric(float64(cfg.ChipWeightBytes())/(1<<20), "chip_MB")
}

// --- Component micro-benchmarks (ablation support) ---

// BenchmarkCompile measures compilation alone per model and strategy.
func BenchmarkCompile(b *testing.B) {
	cfg := arch.DefaultConfig()
	for _, name := range []string{"resnet18", "mobilenetv2"} {
		g := model.Zoo(name)
		for _, s := range []compiler.Strategy{compiler.StrategyGeneric, compiler.StrategyDP} {
			b.Run(fmt.Sprintf("%s/%v", name, s), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: s}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDPPartition measures the Alg. 1 dynamic program alone.
func BenchmarkDPPartition(b *testing.B) {
	cfg := arch.DefaultConfig()
	for _, name := range []string{"resnet18", "efficientnetb0"} {
		g := model.Zoo(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := compiler.Partition(g, &cfg, compiler.Options{Strategy: compiler.StrategyDP}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulator measures raw simulation throughput (nanoseconds per
// instruction) on a compute-heavy single-core loop. The chip is built and
// loaded once and Reset between runs, as a pooled chip is: building one
// inside the loop made 58% of the samples the allocator's memclr.
func BenchmarkSimulator(b *testing.B) {
	cfg := arch.DefaultConfig()
	cfg.Chip.CoreRows, cfg.Chip.CoreCols = 1, 1
	prog, err := compilePump()
	if err != nil {
		b.Fatal(err)
	}
	ch, err := sim.NewChip(&cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := ch.LoadProgram(sim.Program{Core: 0, Code: prog}); err != nil {
		b.Fatal(err)
	}
	var instructions int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := ch.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		instructions += stats.Instructions
		ch.Reset()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instructions), "ns/instr")
}

func compilePump() ([]isa.Instruction, error) {
	return isa.Assemble(`
		SC_ADDI G1, G0, 500
	loop:	SC_ADDI G2, G0, 64
		SC_ADDI G3, G0, 128
		VEC_ADD G3, G2, G2, G2
		SC_ADDI G1, G1, -1
		BNE G1, G0, %loop
		HALT
	`)
}

// BenchmarkNoCTransfer measures the mesh NoC model.
func BenchmarkNoCTransfer(b *testing.B) {
	cfg := arch.DefaultConfig()
	m := noc.New(&cfg)
	t := int64(0)
	for i := 0; i < b.N; i++ {
		t = m.Transfer(i%64, (i*7+13)%64, 256, t)
	}
}

// BenchmarkReferenceExecutor measures the golden tensor library on the
// compact benchmark model.
func BenchmarkReferenceExecutor(b *testing.B) {
	g := model.TinyCNN()
	ws := model.NewSeededWeights(g, 1)
	in := model.SeededInput(g.Nodes[0].OutShape, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Execute(g, in, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: each turns off one compiler design choice (the IR
// optimizer here; closure enumeration in internal/compiler) ---

// BenchmarkAblationIROptimizer reports what the late linear-code passes
// save on a real compiled model.
func BenchmarkAblationIROptimizer(b *testing.B) {
	cfg := arch.DefaultConfig()
	g := model.ResNet18()
	var instr int
	for i := 0; i < b.N; i++ {
		c, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyGeneric})
		if err != nil {
			b.Fatal(err)
		}
		instr = c.InstructionCount()
	}
	b.ReportMetric(float64(instr), "instructions")
}

// BenchmarkEndToEndValidation measures the full compile-simulate-compare
// loop used by the functional test suite.
func BenchmarkEndToEndValidation(b *testing.B) {
	cfg := arch.DefaultConfig()
	g := model.TinyResNet()
	for i := 0; i < b.N; i++ {
		compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyDP})
		if err != nil {
			b.Fatal(err)
		}
		s, err := core.NewSession(compiled, model.NewSeededWeights(g, 1), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		mism, err := s.Validate(context.Background(), model.SeededInput(g.Nodes[0].OutShape, 2))
		s.Close()
		if err != nil {
			b.Fatal(err)
		}
		if mism != 0 {
			b.Fatalf("%d mismatches", mism)
		}
	}
}
