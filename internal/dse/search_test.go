package dse

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
)

// searchSpec is the shared tiny search space: 2 models x 1 strategy x 2 MG
// x 2 flit = 8 points on the fast test networks.
func searchSpec() *Spec {
	return &Spec{
		Name:       "tiny-search",
		Models:     []string{"tinycnn", "tinymlp"},
		Strategies: []string{"generic"},
		MGSizes:    []int{4, 8},
		FlitBytes:  []int{8, 16},
	}
}

// renderRun flattens a result's trajectory and frontier into a canonical
// byte string: the determinism contract is that two runs with the same
// seed, budget and space render identically no matter the worker count or
// shard layout.
func renderRun(r *SearchResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%s space=%d sims=%d\n", r.Strategy, r.SpaceSize, r.Sims)
	b.WriteString("trajectory:\n")
	for _, p := range r.Trajectory {
		fmt.Fprintf(&b, "  %s cycles=%d tops=%.6g energy=%.6g err=%v\n",
			p.Point.Key(), p.Metrics.Cycles, p.Metrics.TOPS, p.Metrics.EnergyMJ, p.Err != nil)
	}
	b.WriteString("frontier:\n")
	for _, p := range r.Frontier {
		fmt.Fprintf(&b, "  %s cycles=%d tops=%.6g energy=%.6g\n",
			p.Point.Key(), p.Metrics.Cycles, p.Metrics.TOPS, p.Metrics.EnergyMJ)
	}
	return b.String()
}

// TestSearchDeterminism: same seed + same budget ⇒ byte-identical
// trajectory and frontier at 1, 2 and 8 workers, for every strategy.
func TestSearchDeterminism(t *testing.T) {
	cache := NewCompileCache()
	for _, strat := range []string{"halving", "hillclimb", "evolve"} {
		var baseline string
		for _, workers := range []int{1, 2, 8} {
			res, err := Search(context.Background(), searchSpec(), SearchOptions{
				Strategy: strat,
				Budget:   4,
				Seed:     7,
				Workers:  workers,
				Cache:    cache,
			})
			if err != nil {
				t.Fatalf("%s j=%d: %v", strat, workers, err)
			}
			if res.Sims == 0 || res.Sims > 4 {
				t.Fatalf("%s j=%d: %d sims, want 1..4", strat, workers, res.Sims)
			}
			if len(res.Frontier) == 0 {
				t.Fatalf("%s j=%d: empty frontier", strat, workers)
			}
			got := renderRun(res)
			if baseline == "" {
				baseline = got
			} else if got != baseline {
				t.Errorf("%s j=%d trajectory diverged:\n--- j=1 ---\n%s--- j=%d ---\n%s",
					strat, workers, baseline, workers, got)
			}
		}
	}
}

// TestSearchSeedMatters: different seeds explore differently (sanity check
// that determinism is not degeneracy) for the stochastic strategies.
func TestSearchSeedMatters(t *testing.T) {
	cache := NewCompileCache()
	runs := map[int64]string{}
	for _, seed := range []int64{1, 2, 3, 4} {
		res, err := Search(context.Background(), searchSpec(), SearchOptions{
			Strategy: "hillclimb", Budget: 3, Seed: seed, Cache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		runs[seed] = renderRun(res)
	}
	distinct := map[string]bool{}
	for _, r := range runs {
		distinct[r] = true
	}
	if len(distinct) < 2 {
		t.Error("four seeds produced identical hillclimb trajectories; RNG is not wired through")
	}
}

// TestSearchRecoversExhaustiveFrontier: with the budget equal to the space
// every strategy must find the exhaustive frontier exactly; with a half
// budget, successive halving (whose screen covers the whole tiny space)
// must still recover it — the multi-fidelity contract in miniature.
func TestSearchRecoversExhaustiveFrontier(t *testing.T) {
	spec := searchSpec()
	base, err := spec.BaseConfig()
	if err != nil {
		t.Fatal(err)
	}
	points, err := spec.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCompileCache()
	exhaustive, err := Run(context.Background(), points, RunOptions{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	wantFront := map[string]bool{}
	for _, r := range ParetoFront(exhaustive) {
		wantFront[r.Point.Key()] = true
	}
	if len(wantFront) == 0 {
		t.Fatal("exhaustive frontier empty")
	}

	check := func(name string, budget int) {
		res, err := Search(context.Background(), spec, SearchOptions{
			Strategy: name, Budget: budget, Seed: 11, Cache: cache,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := map[string]bool{}
		for _, r := range res.Frontier {
			got[r.Point.Key()] = true
		}
		if len(got) != len(wantFront) {
			t.Errorf("%s budget=%d found %d frontier points, want %d", name, budget, len(got), len(wantFront))
		}
		for k := range wantFront {
			if !got[k] {
				t.Errorf("%s budget=%d missed frontier point %s", name, budget, k)
			}
		}
	}
	for _, name := range []string{"halving", "hillclimb", "evolve"} {
		check(name, len(points))
	}
	check("halving", len(points)/2)
}

// TestSearchBudgetEnforced: the trajectory never exceeds the budget, and
// repeat asks of the same point are not double-charged.
func TestSearchBudgetEnforced(t *testing.T) {
	res, err := Search(context.Background(), searchSpec(), SearchOptions{
		Strategy: "evolve", Budget: 3, Seed: 5, Cache: NewCompileCache(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sims > 3 || len(res.Trajectory) > 3 {
		t.Errorf("budget 3 but charged %d sims, %d trajectory entries", res.Sims, len(res.Trajectory))
	}
	seen := map[string]bool{}
	for _, r := range res.Trajectory {
		k := r.Point.Key()
		if seen[k] {
			t.Errorf("point %s charged twice", r.Point.Label())
		}
		seen[k] = true
	}
}

// TestSearchUnknownStrategy: typos fail fast with the valid names.
func TestSearchUnknownStrategy(t *testing.T) {
	_, err := Search(context.Background(), searchSpec(), SearchOptions{Strategy: "anneal"})
	if err == nil || !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("err = %v, want unknown strategy", err)
	}
}

// TestShardMergeEquivalence: two shards racing over a shared checkpoint
// directory produce — each of them — the identical trajectory and frontier
// as the single-process run. The shards share a compile cache the way real
// deployments share an artifact store.
func TestShardMergeEquivalence(t *testing.T) {
	cache := NewCompileCache()
	single, err := Search(context.Background(), searchSpec(), SearchOptions{
		Strategy: "halving", Budget: 4, Seed: 9, Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := renderRun(single)

	base := filepath.Join(t.TempDir(), "search.ckpt")
	results := make([]*SearchResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for shard := 0; shard < 2; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			ckpt, err := LoadCheckpoint(base)
			if err != nil {
				errs[shard] = err
				return
			}
			results[shard], errs[shard] = Search(context.Background(), searchSpec(), SearchOptions{
				Strategy:   "halving",
				Budget:     4,
				Seed:       9,
				Cache:      cache,
				Checkpoint: ckpt,
				Shard:      shard,
				ShardCount: 2,
			})
		}(shard)
	}
	wg.Wait()
	for shard := 0; shard < 2; shard++ {
		if errs[shard] != nil {
			t.Fatalf("shard %d: %v", shard, errs[shard])
		}
		if got := renderRun(results[shard]); got != want {
			t.Errorf("shard %d diverged from single-process run:\n--- single ---\n%s--- shard %d ---\n%s",
				shard, want, shard, got)
		}
		// The split of the work: a shard's own checkpoint holds what it
		// simulated, its half of the four asks.
		own, err := LoadCheckpoint(ShardPath(base, shard, 2))
		if err != nil {
			t.Fatal(err)
		}
		if own.Len() != 2 {
			t.Errorf("shard %d simulated %d of the 4 asks, want 2", shard, own.Len())
		}
	}
}

// deadCellSpec is searchSpec with a second core mesh of zero rows: half its
// 16 cells are dead (their configuration is invalid), so their estimates
// fail, and 8 are live.
func deadCellSpec() *Spec {
	spec := searchSpec()
	spec.CoreMeshes = [][2]int{{2, 2}, {0, 2}}
	return spec
}

// TestSearchStopsWhenSpaceExhausted: with a budget twice the space, every
// strategy simulates each live point once and returns, on a space of live
// cells only and on one with dead cells; none simulates a dead cell.
// Halving, whose rung is budget-sized, is also held to the budget exactly.
func TestSearchStopsWhenSpaceExhausted(t *testing.T) {
	cache := NewCompileCache()
	for _, sc := range []struct {
		name       string
		spec       *Spec
		size, live int
	}{{"live", searchSpec(), 8, 8}, {"dead cells", deadCellSpec(), 16, 8}} {
		for _, strat := range []string{"halving", "hillclimb", "evolve"} {
			for _, budget := range []int{sc.live, 2 * sc.size} {
				label := fmt.Sprintf("%s/%s/budget %d", sc.name, strat, budget)
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				done := make(chan struct{})
				var res *SearchResult
				var err error
				go func() {
					defer close(done)
					res, err = Search(ctx, sc.spec, SearchOptions{Strategy: strat, Budget: budget, Seed: 3, Cache: cache})
				}()
				select {
				case <-done:
				case <-ctx.Done():
					t.Fatalf("%s: still searching after %v", label, time.Minute)
				}
				cancel()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if strat == "halving" || budget > sc.live {
					if res.Sims != sc.live || len(res.Trajectory) != sc.live {
						t.Errorf("%s: %d sims, %d in the trajectory, want %d", label, res.Sims, len(res.Trajectory), sc.live)
					}
				}
				for _, r := range res.Trajectory {
					if r.Err != nil {
						t.Errorf("%s: simulated %s: %v", label, r.Point.Label(), r.Err)
					}
				}
			}
		}
	}
	// A halving rung smaller than the space: the trajectory is the budget.
	res, err := Search(context.Background(), searchSpec(), SearchOptions{Strategy: "halving", Budget: 3, Seed: 3, Cache: cache})
	if err != nil || res.Sims != 3 || len(res.Trajectory) != 3 {
		t.Errorf("halving at budget 3 of 8: %d sims, %d in the trajectory, %v", res.Sims, len(res.Trajectory), err)
	}
}

// TestShardValidation: a sharded run without a file-backed checkpoint, or
// with an out-of-range shard id, fails fast.
func TestShardValidation(t *testing.T) {
	if _, err := Search(context.Background(), searchSpec(), SearchOptions{
		Strategy: "halving", Budget: 2, Shard: 0, ShardCount: 2,
	}); err == nil {
		t.Error("sharded run without checkpoint accepted")
	}
	ckpt, err := LoadCheckpoint(filepath.Join(t.TempDir(), "c.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Search(context.Background(), searchSpec(), SearchOptions{
		Strategy: "halving", Budget: 2, Checkpoint: ckpt, Shard: 2, ShardCount: 2,
	}); err == nil {
		t.Error("out-of-range shard id accepted")
	}
}

// TestInfeasiblePointNeverSimulated: resnet18 on a 2x2 mesh of 2-macro groups
// needs more macro groups than a core has, which the planner finds, so the
// point's estimate is an *ErrInfeasible and halving spends its simulations on
// the tinymlp points alone.
func TestInfeasiblePointNeverSimulated(t *testing.T) {
	spec := &Spec{
		Models:     []string{"tinymlp", "resnet18"},
		Strategies: []string{"generic", "dp"},
		MGSizes:    []int{2},
		CoreMeshes: [][2]int{{2, 2}},
	}
	points, err := spec.Expand(arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev := &Evaluator{Cache: NewCompileCache()}
	var inf *compiler.ErrInfeasible
	for _, p := range points {
		_, err := ev.Estimate(&p)
		if unfit := errors.As(err, &inf); unfit != (p.Model == "resnet18") {
			t.Errorf("%s: estimate error %v", p.Label(), err)
		}
	}
	res, err := Search(context.Background(), spec, SearchOptions{Strategy: "halving", Budget: len(points), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sims != 2 {
		t.Errorf("%d simulations, want the 2 tinymlp points", res.Sims)
	}
	for _, r := range res.Trajectory {
		if r.Point.Model != "tinymlp" || r.Err != nil {
			t.Errorf("simulated %s: %v", r.Point.Label(), r.Err)
		}
	}
}
