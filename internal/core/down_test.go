package core

import (
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
)

func downNet() *model.Graph {
	g, x := model.NewGraph("tinydown", model.Shape{H: 8, W: 8, C: 8})
	x = g.Conv("conv1", x, 16, 3, 1, 1, true)
	y := g.Conv("conv2", x, 32, 3, 2, 1, true)
	d := g.Conv("down", x, 32, 1, 2, 0, false)
	y = g.Add("add", y, d)
	y = g.GlobalAvgPool("gap", y)
	y = g.Flatten("flatten", y)
	g.Dense("fc", y, 10, false)
	return g
}

func TestSmokeDown(t *testing.T) {
	g := downNet()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	assertValidates(t, g.Name, mustCompile(t, g, arch.DefaultConfig(), compiler.StrategyGeneric), 3)
}
