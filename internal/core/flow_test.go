package core

import (
	"context"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
)

// assertValidates runs compiled on the weights of seed and the input of
// seed+1 through Session.Validate: the output must be the golden
// executor's, element for element.
func assertValidates(t *testing.T, label string, compiled *compiler.Compiled, seed uint64) {
	t.Helper()
	g := compiled.Graph
	s, err := NewSession(compiled, model.NewSeededWeights(g, seed), Options{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	defer s.Close()
	mism, err := s.Validate(context.Background(), model.SeededInput(g.Nodes[0].OutShape, seed+1))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if mism != 0 {
		t.Errorf("%s: %d mismatching output elements", label, mism)
	}
}

// mustCompile compiles g for cfg under strat.
func mustCompile(t *testing.T, g *model.Graph, cfg arch.Config, strat compiler.Strategy) *compiler.Compiled {
	t.Helper()
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: strat})
	if err != nil {
		t.Fatalf("%s/%s: %v", g.Name, strat, err)
	}
	return compiled
}

// TestTinyModelsFunctional is the keystone end-to-end test: compile small
// networks covering dense, conv, pooling and residual paths, run them on
// the simulator, and demand bit-exact agreement with the golden reference
// on weights and input seeds of their own.
func TestTinyModelsFunctional(t *testing.T) {
	for _, name := range []string{"tinymlp", "tinycnn", "tinyresnet", "tinymobile", "tinyse"} {
		for _, s := range []compiler.Strategy{compiler.StrategyGeneric, compiler.StrategyDuplication, compiler.StrategyDP} {
			c := zooCase{name, s, arch.DefaultConfig()}
			assertValidates(t, c.String(), c.compiled(t), 11)
		}
	}
}
