package dse

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cimflow/internal/artifact"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/model"
)

// Estimate is the low-fidelity prediction of a point: planning-stage cost
// read from the compiler's memoized DP tables plus an analytical energy
// model — no codegen, no simulation.
type Estimate = compiler.CostEstimate

// Evaluator runs individual sweep points at either fidelity. It is the
// unit the sweep runner and the search strategies share: Run evaluates a
// fixed point list, a search the batches its strategy asks for, both on
// the same worker pool. It runs every point on one core.Pool, which
// restages the chips of finished simulations for the next points, so the
// chips it holds are as many as ran at once (at most GOMAXPROCS), and it
// keeps one read-only weight table per (model, seed), generated by the
// first point that needs it, with one compiler.WeightTiles over it: each
// node's region is tiled once per macro geometry, by the first point of
// that geometry, and every later point's chips read it in place, whatever
// the strategy or the flit width. All of them live as long as the
// evaluator: one Run, or one whole search. Safe for concurrent use; not to
// be copied.
type Evaluator struct {
	// Cache deduplicates compilation; required.
	Cache *CompileCache
	// Checkpoint, when non-nil, is consulted before fully evaluating a
	// point and updated after each completion.
	Checkpoint *Checkpoint

	chips   core.Pool
	weights sync.Map // weightKey -> func() *compiler.WeightTiles, a sync.OnceValue
}

// testTiles, when set by tests, sees every tile cache an evaluator makes.
var testTiles func(*compiler.WeightTiles)

// weightKey names the weights of a point: its model and seed.
type weightKey struct {
	model string
	seed  uint64
}

// weightTable is a model's seeded weights by node ID. Sessions only read
// weights, so every point of the model and seed shares one table.
type weightTable [][]int8

func (t weightTable) Weights(nodeID int) []int8 { return t[nodeID] }

// weightsOf returns the tiles over the weight table of p's model and seed,
// generating the table from g, p's graph, on first use.
func (ev *Evaluator) weightsOf(p *Point, g *model.Graph) *compiler.WeightTiles {
	gen := sync.OnceValue(func() *compiler.WeightTiles {
		ws := model.NewSeededWeights(g, p.Seed)
		t := make(weightTable, len(g.Nodes))
		for id := range t {
			t[id] = ws.Weights(id)
		}
		tiles := compiler.NewWeightTiles(t)
		if testTiles != nil {
			testTiles(tiles)
		}
		return tiles
	})
	v, _ := ev.weights.LoadOrStore(weightKey{p.Model, p.Seed}, gen)
	return v.(func() *compiler.WeightTiles)()
}

// graph resolves a point's model from the zoo.
func (ev *Evaluator) graph(p *Point) (*model.Graph, error) {
	g := model.Zoo(p.Model)
	if g == nil {
		return nil, fmt.Errorf("dse: unknown model %q", p.Model)
	}
	return g, nil
}

// Estimate prices a point at low fidelity: the compiler runs through its
// planning stage only (validation, condensation, cost tables, partition)
// and the plan is priced analytically. Milliseconds instead of seconds per
// point, exact enough to rank candidates for pruning. Estimates are never
// checkpointed — they are cheap to recompute and must not shadow real
// simulation results.
func (ev *Evaluator) Estimate(p *Point) (Estimate, error) {
	g, err := ev.graph(p)
	if err != nil {
		return Estimate{}, err
	}
	return ev.estimate(p, artifact.GraphFingerprint(g), g)
}

// estimate is Estimate of p with its graph g resolved; fp is g's
// artifact.GraphFingerprint.
func (ev *Evaluator) estimate(p *Point, fp string, g *model.Graph) (Estimate, error) {
	cx, err := ev.Cache.context(fp, g)
	if err != nil {
		return Estimate{}, err
	}
	return cx.Estimate(&p.Config, compiler.Options{Strategy: p.Strategy})
}

// Evaluate runs a point at full fidelity: checkpoint lookup, compile
// (through the shared cache) and cycle-accurate simulation, recording the
// outcome in the checkpoint. Cancelling ctx aborts the simulation mid-run,
// not just between points; cancellation is never recorded as an outcome.
func (ev *Evaluator) Evaluate(ctx context.Context, p Point) PointResult {
	r := ev.evaluate(ctx, p)
	cancelled := errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded)
	if ev.Checkpoint != nil && !r.Cached && !cancelled {
		ev.Checkpoint.Record(r.Point.Key(), &r)
	}
	return r
}

func (ev *Evaluator) evaluate(ctx context.Context, p Point) PointResult {
	if ev.Checkpoint != nil {
		if saved, ok := ev.Checkpoint.Lookup(p.Key()); ok {
			return saved.restore(p)
		}
	}
	g, err := ev.graph(&p)
	if err != nil {
		return PointResult{Point: p, Err: err}
	}
	start := time.Now()
	// One fingerprint names the graph to both cache lookups below.
	fp := artifact.GraphFingerprint(g)
	compiled, _, err := ev.Cache.compile(fp, g, &p.Config, compiler.Options{Strategy: p.Strategy})
	compileTime := time.Since(start)
	if err != nil {
		return PointResult{Point: p, CompileTime: compileTime,
			Err: fmt.Errorf("dse: compile %s: %w", p.Label(), err)}
	}
	r := PointResult{Point: p, CompileTime: compileTime}
	// The estimate rides along on full evaluations so every result row can
	// report predicted next to measured cycles. The planner is memoized in
	// the shared context, so this re-prices an existing plan.
	if est, err := ev.estimate(&p, fp, g); err == nil {
		r.CostEst = est.Cycles
	}
	ws := ev.weightsOf(&p, g)
	input := model.SeededInput(g.Nodes[0].OutShape, p.Seed+1)
	start = time.Now()
	s, err := ev.chips.NewSession(compiled, ws, core.Options{})
	var res *core.Result
	if err == nil {
		res, err = s.Infer(ctx, input)
	}
	r.SimTime = time.Since(start)
	if err != nil {
		r.Err = fmt.Errorf("dse: simulate %s: %w", p.Label(), err)
		return r
	}
	r.Metrics = metricsOf(res)
	r.Result = res
	return r
}
