package search

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"cimflow/internal/dse"
)

// Options configures a search run.
type Options struct {
	// Strategy picks the algorithm: "halving", "hillclimb" or "evolve".
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
	// Cache deduplicates compilation; nil uses a private cache. Attach an
	// artifact store to share compiles across shard processes.
	Cache *dse.CompileCache
	// Checkpoint, when non-nil, records completed simulations for resume.
	// Sharded runs derive per-shard files from its path (see shard.go).
	Checkpoint *dse.Checkpoint
	// CycleLimit forwards the simulator's runaway guard (0 = default).
	CycleLimit int64
	// OnSim, when non-nil, observes each charged simulation in trajectory
	// order (serialized).
	OnSim func(dse.PointResult)

	// Eta is the successive-halving cull factor (default 4): each screening
	// rung keeps 1/eta of its candidates until the budget rung is reached.
	Eta int
	// Restarts caps hill-climbing restarts (0 = restart until the budget
	// runs out).
	Restarts int
	// Mu and Lambda size the evolutionary loop (defaults 4 and 8): mu
	// parents survive, lambda offspring are bred per generation.
	Mu, Lambda int

	// Shard and ShardCount distribute the simulation budget across
	// cooperating processes: this process simulates the asks whose global
	// ordinal is congruent to Shard modulo ShardCount and reads its peers'
	// results from their shard checkpoints. ShardCount <= 1 disables
	// sharding. Every shard must run the same spec, strategy, seed and
	// budget; each converges to the identical merged frontier.
	Shard, ShardCount int
}

// Result is the outcome of a search run.
type Result struct {
	Strategy  string
	SpaceSize int
	// Sims is the charged simulation count (<= Budget); Estimates counts
	// the free planning-stage evaluations.
	Sims, Estimates int
	// Trajectory lists every charged simulation in ask order — the
	// deterministic spine of the run (byte-identical across worker counts
	// and shards).
	Trajectory []dse.PointResult
	// Frontier is the Pareto-optimal subset of the trajectory.
	Frontier []dse.PointResult
	// Hypervolume is the frontier's dominated area against a reference at
	// (0 TOPS, 1.05x worst observed energy).
	Hypervolume float64
}

// Strategy navigates a space through a Tour. Implementations must drive
// all randomness through the tour's RNG and stop when the budget is spent.
type Strategy interface {
	Name() string
	Search(t *Tour) error
}

// New resolves a strategy by name.
func New(name string, opt Options) (Strategy, error) {
	switch name {
	case "halving", "sh":
		return &Halving{Eta: opt.Eta}, nil
	case "hillclimb", "hc":
		return &HillClimb{Restarts: opt.Restarts}, nil
	case "evolve", "ea":
		return &Evolve{Mu: opt.Mu, Lambda: opt.Lambda}, nil
	}
	return nil, fmt.Errorf("search: unknown strategy %q (have halving, hillclimb, evolve)", name)
}

// Run searches a spec's design space and returns the found frontier.
func Run(ctx context.Context, spec *dse.Spec, opt Options) (*Result, error) {
	space, err := NewSpace(spec)
	if err != nil {
		return nil, err
	}
	strat, err := New(opt.Strategy, opt)
	if err != nil {
		return nil, err
	}
	if opt.Budget <= 0 {
		opt.Budget = (space.Size() + 3) / 4
	}
	t, err := newTour(ctx, space, opt)
	if err != nil {
		return nil, err
	}
	defer t.close()
	if err := strat.Search(t); err != nil && !errors.Is(err, errBudget) {
		return nil, err
	}
	return t.result(strat.Name()), ctx.Err()
}

// errBudget signals the budget ran out mid-batch; Run treats it as normal
// termination so strategies may simply propagate it.
var errBudget = errors.New("search: simulation budget exhausted")

// EstResult is one low-fidelity evaluation.
type EstResult struct {
	Index int
	Est   dse.Estimate
	Err   error
}

// Tour is a strategy's handle on one search run: batched evaluation at
// both fidelities, budget accounting, memoization and the seeded RNG.
// Strategies call its methods sequentially; parallelism lives inside a
// batch, and batch results are assembled in ask order, which is what makes
// a trajectory reproducible at any worker count.
type Tour struct {
	ctx     context.Context
	space   *Space
	ev      *dse.Evaluator
	rng     *rand.Rand
	opt     Options
	workers int

	estMemo    map[int]EstResult
	simMemo    map[int]dse.PointResult
	keyIndex   map[string]int // evaluator key -> first simulated index
	trajectory []int
	sims       int
	estimates  int
	shard      *shardState
}

func newTour(ctx context.Context, space *Space, opt Options) (*Tour, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := opt.Cache
	if cache == nil {
		cache = dse.NewCompileCache()
	}
	t := &Tour{
		ctx:      ctx,
		space:    space,
		ev:       &dse.Evaluator{Cache: cache, Checkpoint: opt.Checkpoint, CycleLimit: opt.CycleLimit},
		rng:      rand.New(rand.NewSource(opt.Seed)),
		opt:      opt,
		workers:  workers,
		estMemo:  map[int]EstResult{},
		simMemo:  map[int]dse.PointResult{},
		keyIndex: map[string]int{},
	}
	if opt.ShardCount > 1 {
		sh, err := newShardState(opt)
		if err != nil {
			return nil, err
		}
		t.shard = sh
		t.ev.Checkpoint = sh.own
	}
	return t, nil
}

func (t *Tour) close() {
	if t.shard != nil {
		t.shard.close()
	}
}

// Space returns the indexed design space.
func (t *Tour) Space() *Space { return t.space }

// Rng is the run's seeded random source. Single-goroutine use only.
func (t *Tour) Rng() *rand.Rand { return t.rng }

// Remaining reports how many budgeted simulations are left.
func (t *Tour) Remaining() int { return t.opt.Budget - t.sims }

// Simulated reports whether index i has already been charged.
func (t *Tour) Simulated(i int) bool {
	_, ok := t.simMemo[i]
	return ok
}

// EstimateBatch prices points at low fidelity (free), memoized by index.
// Results align with idx.
func (t *Tour) EstimateBatch(idx []int) []EstResult {
	out := make([]EstResult, len(idx))
	var fresh []int
	for _, i := range idx {
		if _, ok := t.estMemo[i]; !ok {
			t.estMemo[i] = EstResult{Index: i} // reserve to dedupe in-batch
			fresh = append(fresh, i)
		}
	}
	freshRes := make([]EstResult, len(fresh))
	t.forEach(len(fresh), func(k int) {
		i := fresh[k]
		r := EstResult{Index: i}
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
func (t *Tour) SimBatch(idx []int) []dse.PointResult {
	out := make([]dse.PointResult, len(idx))
	type job struct {
		pos   int // position in `fresh`
		index int
		point dse.Point
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
			t.simMemo[i] = dse.PointResult{Point: p, Err: err}
			continue
		}
		if alias, ok := t.keyIndex[t.ev.Key(&p)]; ok {
			// Same configuration under a different index (e.g. an explicit
			// knob equal to the base value): share the result, no charge.
			t.simMemo[i] = t.simMemo[alias]
			continue
		}
		if t.Remaining() <= len(fresh) {
			continue // budget exhausted; leave unmemoized so a later run could try
		}
		fresh = append(fresh, job{pos: len(fresh), index: i, point: p})
	}

	results := make([]dse.PointResult, len(fresh))
	if t.shard == nil {
		t.forEach(len(fresh), func(k int) {
			results[k] = t.ev.Evaluate(t.ctx, fresh[k].point)
		})
	} else {
		// Split the batch by global ask ordinal: ours run locally, peers'
		// results are awaited from their shard checkpoints.
		var mine []int
		for k := range fresh {
			if (t.sims+k)%t.opt.ShardCount == t.opt.Shard {
				mine = append(mine, k)
			}
		}
		t.forEach(len(mine), func(m int) {
			k := mine[m]
			results[k] = t.ev.Evaluate(t.ctx, fresh[k].point)
		})
		for k := range fresh {
			if (t.sims+k)%t.opt.ShardCount != t.opt.Shard {
				results[k] = t.shard.await(t.ctx, t.ev, fresh[k].point)
			}
		}
	}

	// Assemble in ask order: the trajectory, budget and memo advance
	// identically no matter how the batch was parallelized or sharded.
	for k, j := range fresh {
		r := results[k]
		t.simMemo[j.index] = r
		t.keyIndex[t.ev.Key(&j.point)] = j.index
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
			out[k] = dse.PointResult{Point: p, Err: errBudget}
		}
	}
	return out
}

// forEach runs f(0..n-1) on the tour's worker pool. f must touch disjoint
// state per call.
func (t *Tour) forEach(n int, f func(int)) {
	if n == 0 {
		return
	}
	workers := t.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// objective extracts the fitness coordinates of a successful result.
func objective(r *dse.PointResult) Objective {
	return Objective{TOPS: r.Metrics.TOPS, EnergyMJ: r.Metrics.EnergyMJ}
}

// estObjective extracts fitness coordinates from a low-fidelity estimate.
func estObjective(e *EstResult) Objective {
	return Objective{TOPS: e.Est.TOPS, EnergyMJ: e.Est.EnergyMJ}
}

// result assembles the run summary from the trajectory.
func (t *Tour) result(strategy string) *Result {
	res := &Result{
		Strategy:  strategy,
		SpaceSize: t.space.Size(),
		Sims:      t.sims,
		Estimates: t.estimates,
	}
	for _, i := range t.trajectory {
		res.Trajectory = append(res.Trajectory, t.simMemo[i])
	}
	res.Frontier = dse.ParetoFront(res.Trajectory)
	var objs []Objective
	worstE := 0.0
	for i := range res.Trajectory {
		r := &res.Trajectory[i]
		if r.Err != nil {
			continue
		}
		objs = append(objs, objective(r))
		if r.Metrics.EnergyMJ > worstE {
			worstE = r.Metrics.EnergyMJ
		}
	}
	res.Hypervolume = Hypervolume(objs, Objective{TOPS: 0, EnergyMJ: worstE * 1.05})
	return res
}
