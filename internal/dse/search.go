package dse

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
)

// SearchOptions configures a search run.
type SearchOptions struct {
	// Strategy picks the algorithm: "halving" or "hillclimb".
	Strategy string
	// Budget is the maximum number of full cycle-accurate simulations the
	// search may spend. Planning-stage estimates are free. <= 0 defaults to
	// 25% of the space (the subsystem's headline contract).
	Budget int
	// Seed drives every random choice; the same seed, budget and space
	// reproduce the identical trajectory at any worker count.
	Seed int64
	// Workers bounds parallel point evaluation; <= 0 means GOMAXPROCS.
	Workers int
	// Cache deduplicates compilation; nil uses a private cache.
	Cache *CompileCache
	// Checkpoint, when non-nil, records completed simulations for resume.
	Checkpoint *Checkpoint
	// OnSim, when non-nil, observes each charged simulation in trajectory
	// order (serialized).
	OnSim func(PointResult)
}

// SearchResult is the outcome of a search run.
type SearchResult struct {
	Strategy  string
	SpaceSize int
	// Sims is the charged simulation count (<= Budget); Estimates counts
	// the free planning-stage evaluations.
	Sims, Estimates int
	// Trajectory lists every charged simulation in ask order — the
	// deterministic spine of the run (byte-identical across worker counts).
	Trajectory []PointResult
	// Frontier is the Pareto-optimal subset of the trajectory.
	Frontier []PointResult
	// Hypervolume is the frontier's dominated area against a reference at
	// (0 TOPS, 1.05x worst observed energy).
	Hypervolume float64
}

// strategy navigates a space through a tour. It must drive all randomness
// through the tour's RNG and stop when the budget is spent.
type strategy func(t *tour)

// strategyNamed resolves a strategy by name.
func strategyNamed(name string) (strategy, error) {
	switch name {
	case "halving":
		return halving, nil
	case "hillclimb":
		return hillClimb, nil
	}
	return nil, fmt.Errorf("dse: unknown strategy %q (have halving, hillclimb)", name)
}

// Search explores a spec's design space under opt.Budget full simulations
// and returns the found frontier.
func Search(ctx context.Context, spec *Spec, opt SearchOptions) (*SearchResult, error) {
	base, err := spec.BaseConfig()
	if err != nil {
		return nil, err
	}
	space, err := NewSpace(spec, base)
	if err != nil {
		return nil, err
	}
	strat, err := strategyNamed(opt.Strategy)
	if err != nil {
		return nil, err
	}
	if opt.Budget <= 0 {
		opt.Budget = (space.Size() + 3) / 4
	}
	t := newTour(ctx, space, opt)
	strat(t)
	return t.result(opt.Strategy), ctx.Err()
}

// errBudget marks the asks of a batch that the spent budget left
// unsimulated.
var errBudget = errors.New("dse: simulation budget exhausted")

// estResult is one low-fidelity evaluation.
type estResult struct {
	Index int
	Est   Estimate
	Err   error
}

// objective extracts fitness coordinates from a low-fidelity estimate.
func (e *estResult) objective() Objective {
	return Objective{TOPS: e.Est.TOPS, EnergyMJ: e.Est.EnergyMJ}
}

// fittest drops the failed estimates and returns the n fittest of the rest
// by (nondomination rank, crowding distance), in their original order.
func fittest(ests []estResult, n int) []estResult {
	var alive []estResult
	var objs []Objective
	for _, e := range ests {
		if e.Err == nil {
			alive = append(alive, e)
			objs = append(objs, e.objective())
		}
	}
	out := make([]estResult, 0, min(n, len(alive)))
	for _, i := range selectBest(objs, n) {
		out = append(out, alive[i])
	}
	return out
}

// indices lists the space indices of estimates.
func indices(ests []estResult) []int {
	out := make([]int, len(ests))
	for i, e := range ests {
		out[i] = e.Index
	}
	return out
}

// tour is a strategy's handle on one search run: batched evaluation at
// both fidelities, budget accounting, memoization and the seeded RNG.
// Strategies call its methods sequentially; parallelism lives inside a
// batch, and batch results are assembled in ask order, which is what makes
// a trajectory reproducible at any worker count.
type tour struct {
	ctx   context.Context
	space *Space
	ev    *Evaluator
	rng   *rand.Rand // single-goroutine use only
	opt   SearchOptions

	estMemo    map[int]estResult
	simMemo    map[int]PointResult
	keyIndex   map[string]int // evaluator key -> first simulated index
	trajectory []int
	sims       int
	estimates  int
}

func newTour(ctx context.Context, space *Space, opt SearchOptions) *tour {
	return &tour{
		ctx:      ctx,
		space:    space,
		ev:       newEvaluator(opt.Cache, opt.Checkpoint),
		rng:      rand.New(rand.NewSource(opt.Seed)),
		opt:      opt,
		estMemo:  map[int]estResult{},
		simMemo:  map[int]PointResult{},
		keyIndex: map[string]int{},
	}
}

// Remaining reports how many budgeted simulations are left.
func (t *tour) Remaining() int { return t.opt.Budget - t.sims }

// Simulated reports whether index i has already been charged.
func (t *tour) Simulated(i int) bool {
	_, ok := t.simMemo[i]
	return ok
}

// open returns the first point, by index, left to simulate — neither
// simulated nor failing its estimate (a dead or unplannable cell) — or -1
// when there is none. It prices unsimulated points in index order up to
// that one, so it costs little while much of the space is open.
func (t *tour) open() int {
	for i := range t.space.Size() {
		if !t.Simulated(i) && t.EstimateBatch([]int{i})[0].Err == nil {
			return i
		}
	}
	return -1
}

// EstimateBatch prices points at low fidelity (free), memoized by index.
// Results align with idx.
func (t *tour) EstimateBatch(idx []int) []estResult {
	out := make([]estResult, len(idx))
	var fresh []int
	for _, i := range idx {
		if _, ok := t.estMemo[i]; !ok {
			t.estMemo[i] = estResult{Index: i} // reserve to dedupe in-batch
			fresh = append(fresh, i)
		}
	}
	freshRes := make([]estResult, len(fresh))
	parallel(len(fresh), t.opt.Workers, func(k int) {
		i := fresh[k]
		r := estResult{Index: i}
		p, err := t.space.Point(i)
		if err != nil {
			r.Err = err
		} else {
			r.Est, r.Err = t.ev.Estimate(&p)
		}
		freshRes[k] = r
	})
	for k, i := range fresh {
		t.estMemo[i] = freshRes[k]
	}
	t.estimates += len(fresh)
	for k, i := range idx {
		out[k] = t.estMemo[i]
	}
	return out
}

// SimBatch promotes points to full simulation. New points are charged
// against the budget in batch order; already-simulated points (by index or
// by configuration identity) are returned from memory for free. When the
// budget runs out mid-batch the remaining entries carry errBudget and the
// batch result is still aligned with idx.
func (t *tour) SimBatch(idx []int) []PointResult {
	out := make([]PointResult, len(idx))
	type job struct {
		index int
		point Point
	}
	var fresh []job
	seen := map[int]bool{}
	for _, i := range idx {
		if _, ok := t.simMemo[i]; ok || seen[i] {
			continue
		}
		seen[i] = true
		p, err := t.space.Point(i)
		if err != nil {
			// Dead cell: memoize the failure, never charge.
			t.simMemo[i] = PointResult{Point: p, Err: err}
			continue
		}
		if alias, ok := t.keyIndex[p.Key()]; ok {
			// Same configuration under a different index (e.g. an explicit
			// knob equal to the base value): share the result, no charge.
			t.simMemo[i] = t.simMemo[alias]
			continue
		}
		if t.Remaining() <= len(fresh) {
			continue // budget exhausted; leave unmemoized so a later run could try
		}
		fresh = append(fresh, job{index: i, point: p})
	}

	results := make([]PointResult, len(fresh))
	parallel(len(fresh), t.opt.Workers, func(k int) {
		results[k] = t.ev.Evaluate(t.ctx, fresh[k].point)
	})

	// Assemble in ask order: the trajectory, budget and memo advance
	// identically no matter how the batch was parallelized.
	for k, j := range fresh {
		r := results[k]
		t.simMemo[j.index] = r
		t.keyIndex[j.point.Key()] = j.index
		t.trajectory = append(t.trajectory, j.index)
		t.sims++
		if t.opt.OnSim != nil {
			t.opt.OnSim(r)
		}
	}
	for k, i := range idx {
		if r, ok := t.simMemo[i]; ok {
			out[k] = r
		} else {
			p, _ := t.space.Point(i)
			out[k] = PointResult{Point: p, Err: errBudget}
		}
	}
	return out
}

// result assembles the run summary from the trajectory.
func (t *tour) result(strategy string) *SearchResult {
	res := &SearchResult{
		Strategy:  strategy,
		SpaceSize: t.space.Size(),
		Sims:      t.sims,
		Estimates: t.estimates,
	}
	for _, i := range t.trajectory {
		res.Trajectory = append(res.Trajectory, t.simMemo[i])
	}
	res.Frontier = ParetoFront(res.Trajectory)
	var objs []Objective
	worstE := 0.0
	for i := range res.Trajectory {
		r := &res.Trajectory[i]
		if r.Err != nil {
			continue
		}
		objs = append(objs, r.objective())
		if r.Metrics.EnergyMJ > worstE {
			worstE = r.Metrics.EnergyMJ
		}
	}
	res.Hypervolume = Hypervolume(objs, Objective{TOPS: 0, EnergyMJ: worstE * 1.05})
	return res
}
