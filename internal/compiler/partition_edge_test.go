package compiler

import (
	"strings"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/model"
)

// planNodes collects every planned node id.
func planNodes(p *Plan) map[int]bool {
	seen := map[int]bool{}
	for _, st := range p.Stages {
		for _, op := range st.Ops {
			seen[op.Node.ID] = true
		}
	}
	return seen
}

// TestDPPartitionSingleUnitGraph: a graph condensing to exactly one unit
// (one conv anchor) partitions into one single-op stage under the DP.
func TestDPPartitionSingleUnitGraph(t *testing.T) {
	g, in := model.NewGraph("oneconv", model.Shape{H: 8, W: 8, C: 16})
	g.Conv("conv", in, 32, 3, 1, 1, true)
	cfg := arch.DefaultConfig()
	plan, err := Partition(g, &cfg, Options{Strategy: StrategyDP})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 1 {
		t.Fatalf("single-unit graph planned %d stages, want 1", len(plan.Stages))
	}
	if len(plan.Stages[0].Ops) != 1 {
		t.Errorf("stage has %d ops, want 1", len(plan.Stages[0].Ops))
	}
	if plan.ClosureCapHit {
		t.Error("two-closure enumeration reported a cap hit")
	}
	if plan.ClosuresEnumerated != 2 { // {} and {conv}
		t.Errorf("ClosuresEnumerated = %d, want 2", plan.ClosuresEnumerated)
	}
}

// TestDPPartitionAllNodesOneUnit: every auxiliary operator joins the single
// anchor's unit, and the DP plans all of them onto the anchor's placement.
func TestDPPartitionAllNodesOneUnit(t *testing.T) {
	g, in := model.NewGraph("oneunit", model.Shape{H: 8, W: 8, C: 16})
	c := g.Conv("conv", in, 32, 3, 1, 1, false)
	r := g.ReLU("relu", c)
	p := g.MaxPool("pool", r, 2, 2, 0)
	g.GlobalAvgPool("gap", p)
	units, err := condense(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("graph condenses to %d units, want 1", len(units))
	}
	if len(units[0].nodes) != 4 {
		t.Errorf("unit holds %d nodes, want 4", len(units[0].nodes))
	}
	cfg := arch.DefaultConfig()
	plan, err := Partition(g, &cfg, Options{Strategy: StrategyDP})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Stages) != 1 {
		t.Fatalf("one-unit graph planned %d stages, want 1", len(plan.Stages))
	}
	seen := planNodes(plan)
	for _, n := range g.Nodes {
		if n.Op == model.OpInput || n.Op == model.OpFlatten {
			continue
		}
		if !seen[n.ID] {
			t.Errorf("node %s not planned", n.Name)
		}
	}
}

// cappedContext returns a context for g whose closure set was enumerated
// under a cap of n instead of defaultMaxClosures, so a small n forces the
// DP onto the linear-prefix fallback.
func cappedContext(tb testing.TB, g *model.Graph, n int) *CompileContext {
	tb.Helper()
	cx, err := NewContext(g)
	if err != nil {
		tb.Fatal(err)
	}
	cx.closures = enumerateClosures(cx.units, n)
	return cx
}

// TestDPCapFallbackEquivalenceOnChain: on a chain graph the exhaustive
// closure enumeration and the linear-prefix fallback describe the same
// state space, so a forced-low cap must reproduce the uncapped plan exactly
// (minus the cap-hit marker).
func TestDPCapFallbackEquivalenceOnChain(t *testing.T) {
	g := model.TinyCNN() // pure chain
	cfg := arch.DefaultConfig()
	free, err := Partition(g, &cfg, Options{Strategy: StrategyDP})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := cappedContext(t, g, 1).Partition(&cfg, Options{Strategy: StrategyDP})
	if err != nil {
		t.Fatal(err)
	}
	if free.ClosureCapHit {
		t.Error("uncapped run reported a cap hit")
	}
	if !capped.ClosureCapHit {
		t.Fatal("a cap of 1 did not trigger the fallback")
	}
	if capped.EstimatedCycles != free.EstimatedCycles {
		t.Errorf("fallback estimate %f != uncapped %f", capped.EstimatedCycles, free.EstimatedCycles)
	}
	if len(capped.Stages) != len(free.Stages) {
		t.Fatalf("fallback planned %d stages, uncapped %d", len(capped.Stages), len(free.Stages))
	}
	for si, st := range free.Stages {
		if len(capped.Stages[si].Ops) != len(st.Ops) {
			t.Errorf("stage %d: fallback %d ops, uncapped %d", si, len(capped.Stages[si].Ops), len(st.Ops))
			continue
		}
		for oi, op := range st.Ops {
			if capped.Stages[si].Ops[oi].Node.ID != op.Node.ID {
				t.Errorf("stage %d op %d: fallback plans node %d, uncapped %d",
					si, oi, capped.Stages[si].Ops[oi].Node.ID, op.Node.ID)
			}
		}
	}
}

// TestDPCapFallbackSoundOnBranchyGraph: forcing the cap low on a graph with
// residual branches (where the fallback genuinely prunes the search) still
// yields a sound plan — every node planned once, the cap hit surfaced on
// the plan and in its summary.
func TestDPCapFallbackSoundOnBranchyGraph(t *testing.T) {
	g := model.ResNet18()
	cfg := arch.DefaultConfig()
	cx := cappedContext(t, g, 5)
	plan, err := cx.Partition(&cfg, Options{Strategy: StrategyDP})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.ClosureCapHit {
		t.Fatal("cap of 5 not reported as hit on resnet18")
	}
	if plan.ClosuresEnumerated <= 5 {
		t.Errorf("ClosuresEnumerated = %d, want > 5", plan.ClosuresEnumerated)
	}
	if !strings.Contains(plan.Summary(), "closure cap hit") {
		t.Errorf("summary does not surface the cap hit:\n%s", plan.Summary())
	}
	seen := map[int]int{}
	for _, st := range plan.Stages {
		for _, op := range st.Ops {
			seen[op.Node.ID]++
		}
	}
	for _, n := range g.Nodes {
		if n.Op == model.OpInput || n.Op == model.OpFlatten {
			continue
		}
		if seen[n.ID] != 1 {
			t.Errorf("node %s planned %d times", n.Name, seen[n.ID])
		}
	}
	// The capped plan must still compile end to end.
	if _, err := cx.Compile(&cfg, Options{Strategy: StrategyDP}); err != nil {
		t.Errorf("capped plan failed codegen: %v", err)
	}
}

// TestGreedyPlansReportNoCapHit: the greedy strategies never enumerate
// closures, so their plans must not carry the DP's cap marker.
func TestGreedyPlansReportNoCapHit(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, s := range []Strategy{StrategyGeneric, StrategyDuplication} {
		plan, err := cappedContext(t, model.TinyResNet(), 1).Partition(&cfg, Options{Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		if plan.ClosureCapHit || plan.ClosuresEnumerated != 0 {
			t.Errorf("%s: cap fields set (%v, %d)", s, plan.ClosureCapHit, plan.ClosuresEnumerated)
		}
	}
}
