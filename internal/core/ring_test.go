package core

import (
	"context"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
)

// TestRingStreamingByChip runs a residual block whose activations outgrow
// the staging budget of a 64 KB local memory (5/16 of it, 20 KB): under the
// generic strategy conv1 streams its 34x34x32 padded input (37 KB) from
// global memory through a ring, and conv2, both inputs of add, relu and
// the 2x2 pool stream theirs from in-stage producers. The outputs must be
// bit-exact. The zoo ring-streams the in-stage patterns at the default
// chip (TestInterpreterEquivalence) but no input fetched from global
// memory, so this block is that path's functional check.
func TestRingStreamingByChip(t *testing.T) {
	g, x := model.NewGraph("ringblock", model.Shape{H: 32, W: 32, C: 32})
	x = g.Conv("conv1", x, 32, 3, 1, 1, true)
	y := g.Conv("conv2", x, 32, 3, 1, 1, false)
	y = g.Add("add", y, x)
	y = g.ReLU("relu", y)
	y = g.MaxPool("pool", y, 2, 2, 0)
	y = g.Flatten("flatten", g.GlobalAvgPool("gap", y))
	g.Dense("fc", y, 10, false)
	cfg := arch.DefaultConfig().WithLocalMemBytes(64 << 10)
	if padded, budget := 34*34*32, cfg.Core.LocalMemBytes*5/16; padded <= budget {
		t.Fatalf("conv1's padded input (%d bytes) fits the %d-byte staging budget: nothing streams", padded, budget)
	}
	mism, err := Validate(context.Background(), g, cfg, Options{Strategy: compiler.StrategyGeneric, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mism != 0 {
		t.Errorf("%d mismatches", mism)
	}
}
