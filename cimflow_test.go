package cimflow_test

import (
	"context"
	"testing"

	"cimflow"
	"cimflow/internal/dse"
)

// freshSession builds a new engine and compiles g on it: everything a
// one-shot run pays. Weights are seeded with seed; callers pair it with
// SeededInput(seed+1) for the repository's canonical synthetic run.
func freshSession(t testing.TB, g *cimflow.Graph, cfg cimflow.Config, strategy cimflow.Strategy, seed uint64) *cimflow.Session {
	t.Helper()
	engine, err := cimflow.NewEngine(cfg, cimflow.WithStrategy(strategy), cimflow.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.Session(g)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestFacadeEndToEnd exercises the public API surface: model lookup,
// config, compile, run, validate.
func TestFacadeEndToEnd(t *testing.T) {
	if len(cimflow.ModelNames()) < 4 {
		t.Fatal("model zoo too small")
	}
	g, err := cimflow.LookupModel("tinyresnet")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cimflow.DefaultConfig()
	compiled, err := cimflow.Compile(g, cfg, cimflow.StrategyDP)
	if err != nil {
		t.Fatal(err)
	}
	if compiled.InstructionCount() == 0 {
		t.Error("empty compile result")
	}
	sess := freshSession(t, g, cfg, cimflow.StrategyDP, 1)
	res, err := sess.Infer(context.Background(), sess.SeededInput(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.TOPS <= 0 || res.EnergyMJ <= 0 {
		t.Errorf("degenerate metrics: %v TOPS %v mJ", res.TOPS, res.EnergyMJ)
	}
	mism, err := sess.Validate(context.Background(), sess.SeededInput(2))
	if err != nil {
		t.Fatal(err)
	}
	if mism != 0 {
		t.Errorf("%d mismatches", mism)
	}
}

// TestCustomGraphViaFacade builds a model through the public builder.
func TestCustomGraphViaFacade(t *testing.T) {
	g, x := cimflow.NewGraph("custom", cimflow.Shape{H: 8, W: 8, C: 4})
	x = g.Conv("c1", x, 8, 3, 1, 1, true)
	x = g.GlobalAvgPool("gap", x)
	x = g.Flatten("f", x)
	g.Dense("fc", x, 5, false)
	sess := freshSession(t, g, cimflow.DefaultConfig(), cimflow.StrategyGeneric, 3)
	mism, err := sess.Validate(context.Background(), sess.SeededInput(4))
	if err != nil {
		t.Fatal(err)
	}
	if mism != 0 {
		t.Errorf("%d mismatches", mism)
	}
}

// TestRunDeterministic: two identical runs, each compiled and simulated from
// scratch, must agree cycle-for-cycle.
func TestRunDeterministic(t *testing.T) {
	g, err := cimflow.LookupModel("tinycnn")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cimflow.DefaultConfig()
	run := func() *cimflow.Result {
		sess := freshSession(t, g, cfg, cimflow.StrategyDP, 7)
		res, err := sess.Infer(context.Background(), sess.SeededInput(8))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats.Cycles != b.Stats.Cycles || a.EnergyMJ != b.EnergyMJ {
		t.Errorf("nondeterministic: %d/%d cycles, %v/%v mJ",
			a.Stats.Cycles, b.Stats.Cycles, a.EnergyMJ, b.EnergyMJ)
	}
	for i := range a.Output.Data {
		if a.Output.Data[i] != b.Output.Data[i] {
			t.Fatal("outputs differ between identical runs")
		}
	}
}

// TestSearchFacade: a budgeted Search through the public API returns a
// frontier drawn from its trajectory; beneath it, the planning-stage
// estimate prices a point without simulating it, and the shard checkpoint
// path matches the documented layout.
func TestSearchFacade(t *testing.T) {
	spec := &cimflow.SweepSpec{
		Models:     []string{"tinymlp"},
		Strategies: []string{"generic"},
		MGSizes:    []int{4, 8},
		FlitBytes:  []int{8, 16},
	}
	cache := cimflow.NewCompileCache()
	res, err := cimflow.Search(t.Context(), spec, cimflow.SearchOptions{
		Strategy: "halving", Budget: 2, Seed: 1, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sims == 0 || res.Sims > 2 {
		t.Errorf("sims = %d, want 1..2", res.Sims)
	}
	if len(res.Frontier) == 0 || len(res.Frontier) > len(res.Trajectory) {
		t.Errorf("frontier %d of trajectory %d", len(res.Frontier), len(res.Trajectory))
	}
	for _, r := range res.Trajectory {
		if r.Err != nil {
			t.Errorf("%s failed: %v", r.Point.Label(), r.Err)
		}
		if r.CostEst <= 0 {
			t.Errorf("%s missing cost_est", r.Point.Label())
		}
	}

	base, err := spec.BaseConfig()
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	est, err := (&dse.Evaluator{Cache: cache}).Estimate(&points[0])
	if err != nil {
		t.Fatal(err)
	}
	if est.Cycles <= 0 || est.TOPS <= 0 || est.EnergyMJ <= 0 {
		t.Errorf("degenerate estimate: %+v", est)
	}

	if got := dse.ShardPath("ck.json", 2, 4); got != "ck.json.shard2of4" {
		t.Errorf("ShardPath = %q", got)
	}
}
