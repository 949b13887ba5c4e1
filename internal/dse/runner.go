package dse

import (
	"context"
	"runtime"
	"sync"
	"time"

	"cimflow/internal/core"
)

// Metrics is the serializable summary of one simulated point, the
// currency of Pareto analysis and checkpoints.
type Metrics struct {
	Cycles     int64   `json:"cycles"`
	Seconds    float64 `json:"seconds"`
	TOPS       float64 `json:"tops"`
	EnergyMJ   float64 `json:"energy_mj"`
	LocalMemMJ float64 `json:"localmem_mj"`
	ComputeMJ  float64 `json:"compute_mj"`
	NoCMJ      float64 `json:"noc_mj"`
	Throughput float64 `json:"throughput"`
}

// metricsOf extracts the summary metrics from a completed run.
func metricsOf(res *core.Result) Metrics {
	return Metrics{
		Cycles:     res.Stats.Cycles,
		Seconds:    res.Seconds,
		TOPS:       res.TOPS,
		EnergyMJ:   res.EnergyMJ,
		LocalMemMJ: res.Stats.Energy.LocalMemPJ / 1e9,
		ComputeMJ:  res.Stats.Energy.ComputePJ() / 1e9,
		NoCMJ:      res.Stats.Energy.NoCPJ / 1e9,
		Throughput: res.Throughput,
	}
}

// PointResult is the outcome of one sweep point. Exactly one of Err or a
// populated Metrics is meaningful; Result carries the full simulation
// output (nil when the point failed or was restored from a checkpoint).
type PointResult struct {
	Point   Point
	Metrics Metrics
	Result  *core.Result
	Err     error
	// CostEst is the compiler cost model's cycle prediction for the point
	// (the low-fidelity estimate; Metrics.Cycles is the measured truth).
	// Zero when the planning stage failed before producing an estimate.
	CostEst float64
	// Cached marks a point skipped because the checkpoint already held it.
	Cached bool
	// CompileTime and SimTime split the point's wall-clock cost between
	// the compile stage (near zero on a compile-cache hit) and the
	// simulation, so compile-bound sweep rows are measurable directly.
	// Both are zero for checkpoint-restored points.
	CompileTime time.Duration
	SimTime     time.Duration
}

// RunOptions configures a sweep execution.
type RunOptions struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Cache deduplicates compilation across points; nil uses a private
	// cache scoped to this Run call.
	Cache *CompileCache
	// Checkpoint, when non-nil, is consulted before running each point and
	// updated (and flushed) after each completion, enabling resume of a
	// partial sweep.
	Checkpoint *Checkpoint
	// OnResult, when non-nil, is invoked once per point as it completes.
	// Calls are serialized but arrive in completion order, not index order.
	OnResult func(PointResult)
}

// Run executes every point on a worker pool and returns one PointResult
// per point, in point-index order regardless of parallelism. Point-level
// failures are captured in PointResult.Err rather than aborting the sweep;
// the returned error is non-nil only when ctx is cancelled (points not yet
// started then carry the context error).
func Run(ctx context.Context, points []Point, opt RunOptions) ([]PointResult, error) {
	ev := newEvaluator(opt.Cache, opt.Checkpoint)
	// Results are indexed by slice position, not Point.Index, so Run also
	// works on subsets or hand-built point lists.
	results := make([]PointResult, len(points))
	var emitMu sync.Mutex
	parallel(len(points), opt.Workers, func(i int) {
		r := PointResult{Point: points[i], Err: ctx.Err()}
		if r.Err == nil {
			r = ev.Evaluate(ctx, points[i])
		}
		results[i] = r
		if opt.OnResult != nil {
			emitMu.Lock()
			opt.OnResult(r)
			emitMu.Unlock()
		}
	})
	return results, ctx.Err()
}

// parallel runs f(0..n-1) on a pool of workers goroutines (<= 0 means
// GOMAXPROCS), handing out indices in ascending order. f must touch
// disjoint state per call.
func parallel(n, workers int, f func(int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
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

// newEvaluator builds the point evaluator of one Run or one search,
// supplying a private compile cache when the caller passes none.
func newEvaluator(cache *CompileCache, ckpt *Checkpoint) *Evaluator {
	if cache == nil {
		cache = NewCompileCache()
	}
	return &Evaluator{Cache: cache, Checkpoint: ckpt}
}

// Sweep expands a spec against its base configuration and runs it: the
// one-call entry point used by the cimflow-dse command and the facade.
func Sweep(ctx context.Context, spec *Spec, opt RunOptions) ([]PointResult, error) {
	base, err := spec.BaseConfig()
	if err != nil {
		return nil, err
	}
	points, err := spec.Expand(base)
	if err != nil {
		return nil, err
	}
	return Run(ctx, points, opt)
}
