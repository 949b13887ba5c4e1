package dse

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/model"
)

// Estimate is the low-fidelity prediction of a point: planning-stage cost
// read from the compiler's memoized DP tables plus an analytical energy
// model — no codegen, no simulation.
type Estimate = compiler.CostEstimate

// Evaluator runs individual sweep points at either fidelity. It is the
// unit the sweep runner and the search strategies share: Run wraps it in a
// worker pool over a fixed point list, while internal/search calls it
// point-by-point as strategies navigate the space. It keeps the chips of
// finished simulations for the next points of the same architecture
// (core.Rig), so the chips it holds are as many as ran at once. Safe for
// concurrent use; not to be copied.
type Evaluator struct {
	// Cache deduplicates compilation; required.
	Cache *CompileCache
	// Checkpoint, when non-nil, is consulted before fully evaluating a
	// point and updated after each completion.
	Checkpoint *Checkpoint
	// CycleLimit forwards the simulator's runaway guard (0 = default).
	CycleLimit int64

	rigs rigPool
}

// rigPool holds the chips of finished evaluations for the next ones. It
// never holds more rigs than evaluations ran at once, so a sweep builds a
// chip per worker and architecture rather than one per point.
type rigPool struct {
	mu   sync.Mutex
	idle []*core.Rig
}

// get takes an idle rig, one whose chip fits cfg when there is one: workers
// moving through the points of one architecture keep their chips. Any other
// idle rig rebuilds its chip for cfg, so the pool does not grow with the
// number of architectures a sweep visits.
func (p *rigPool) get(cfg *arch.Config) *core.Rig {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return new(core.Rig)
	}
	i := n - 1
	for j, r := range p.idle {
		if r.Fits(cfg) {
			i = j
			break
		}
	}
	r := p.idle[i]
	p.idle = slices.Delete(p.idle, i, i+1)
	return r
}

func (p *rigPool) put(r *core.Rig) {
	p.mu.Lock()
	p.idle = append(p.idle, r)
	p.mu.Unlock()
}

// Key identifies a point outcome for resume: the point identity (model,
// strategy, hardware fingerprint, seed — never axis positions, so a spec
// whose axes were reordered resumes cleanly) plus every evaluator knob that
// can change the outcome (a raised CycleLimit must re-run a point that
// previously hit the runaway guard, not restore its stale failure).
func (ev *Evaluator) Key(p *Point) string {
	key := p.Key()
	if ev.CycleLimit != 0 {
		key += fmt.Sprintf("|cl%d", ev.CycleLimit)
	}
	return key
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
	cx, err := ev.Cache.Context(g)
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
		ev.Checkpoint.Record(ev.Key(&r.Point), &r)
	}
	return r
}

func (ev *Evaluator) evaluate(ctx context.Context, p Point) PointResult {
	if ev.Checkpoint != nil {
		if saved, ok := ev.Checkpoint.Lookup(ev.Key(&p)); ok {
			r := PointResult{Point: p, Metrics: saved.Metrics, CostEst: saved.CostEst, Cached: true}
			if saved.Err != "" {
				r.Err = errors.New(saved.Err)
			}
			return r
		}
	}
	g, err := ev.graph(&p)
	if err != nil {
		return PointResult{Point: p, Err: err}
	}
	start := time.Now()
	compiled, err := ev.Cache.Compile(g, &p.Config, compiler.Options{Strategy: p.Strategy})
	compileTime := time.Since(start)
	if err != nil {
		return PointResult{Point: p, CompileTime: compileTime,
			Err: fmt.Errorf("dse: compile %s: %w", p.Label(), err)}
	}
	r := PointResult{Point: p, CompileTime: compileTime}
	// The estimate rides along on full evaluations so every result row can
	// report predicted next to measured cycles. The planner is memoized in
	// the shared context, so this re-prices an existing plan.
	if est, err := ev.Estimate(&p); err == nil {
		r.CostEst = est.Cycles
	}
	ws := model.NewSeededWeights(g, p.Seed)
	input := model.SeededInput(g.Nodes[0].OutShape, p.Seed+1)
	start = time.Now()
	rig := ev.rigs.get(compiled.Cfg)
	res, err := rig.Simulate(ctx, compiled, ws, input, core.Options{
		Strategy:   p.Strategy,
		Seed:       p.Seed,
		CycleLimit: ev.CycleLimit,
	})
	ev.rigs.put(rig)
	r.SimTime = time.Since(start)
	if err != nil {
		r.Err = fmt.Errorf("dse: simulate %s: %w", p.Label(), err)
		return r
	}
	r.Metrics = metricsOf(res)
	r.Result = res
	return r
}
