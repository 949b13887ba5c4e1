package dse

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/model"
)

// tinySpec is a small but non-trivial sweep used across runner tests:
// 2 models x 2 strategies x 2 MG sizes = 8 points on tiny networks.
func tinySpec() *Spec {
	return &Spec{
		Name:       "tiny",
		Models:     []string{"tinycnn", "tinymlp"},
		Strategies: []string{"generic", "dp"},
		MGSizes:    []int{4, 8},
	}
}

// TestParallelMatchesSerial: the sweep yields identical rows in identical
// order at any parallelism — the engine's core determinism contract.
func TestParallelMatchesSerial(t *testing.T) {
	spec := tinySpec()
	base := arch.DefaultConfig()
	points, err := spec.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := Run(context.Background(), points, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 9} {
		parallel, err := Run(context.Background(), points, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel) != len(serial) {
			t.Fatalf("j=%d: %d results, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			s, p := serial[i], parallel[i]
			if s.Err != nil || p.Err != nil {
				t.Fatalf("j=%d point %d errored: %v / %v", workers, i, s.Err, p.Err)
			}
			if s.Point.Key() != p.Point.Key() || s.Metrics != p.Metrics {
				t.Errorf("j=%d point %d diverged: %+v != %+v", workers, i, p.Metrics, s.Metrics)
			}
		}
	}
}

// TestWarmCacheSkipsCompiles: with a shared cache, a sweep re-run performs
// strictly fewer compiles than points simulated — and in fact none at all.
func TestWarmCacheSkipsCompiles(t *testing.T) {
	spec := tinySpec()
	points, err := spec.Expand(arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCompileCache()
	if _, err := Run(context.Background(), points, RunOptions{Workers: 4, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	cold := cache.CompileCalls()
	if cold != int64(len(points)) {
		t.Errorf("cold sweep compiled %d artifacts for %d distinct points", cold, len(points))
	}
	if _, err := Run(context.Background(), points, RunOptions{Workers: 4, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	warm := cache.CompileCalls() - cold
	if warm != 0 {
		t.Errorf("warm sweep recompiled %d artifacts, want 0", warm)
	}
	if warm >= int64(len(points)) {
		t.Errorf("warm sweep compiles (%d) not fewer than points (%d)", warm, len(points))
	}
}

// TestSharedArtifactsAcrossSpecs: the Fig. 6 → Fig. 7 reuse story — a
// second spec overlapping the first (same model/config/strategy triples)
// only compiles its genuinely new points.
func TestSharedArtifactsAcrossSpecs(t *testing.T) {
	base := arch.DefaultConfig()
	fig6 := &Spec{Models: []string{"tinycnn"}, Strategies: []string{"generic"}, MGSizes: []int{4, 8}}
	fig7 := &Spec{Models: []string{"tinycnn"}, Strategies: []string{"generic", "dp"}, MGSizes: []int{4, 8}}
	cache := NewCompileCache()
	p6, err := fig6.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), p6, RunOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	after6 := cache.CompileCalls()
	p7, err := fig7.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), p7, RunOptions{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	added := cache.CompileCalls() - after6
	if added != 2 {
		t.Errorf("fig7 compiled %d new artifacts, want 2 (dp half only)", added)
	}
}

// TestPerPointErrorCapture: one failing point must not abort the sweep.
func TestPerPointErrorCapture(t *testing.T) {
	base := arch.DefaultConfig()
	points, err := (&Spec{Models: []string{"tinycnn"}, Strategies: []string{"generic"}}).Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage a copy: a 1x1 mesh with tinycnn still compiles, but an
	// unknown model at run time is the simplest injectable failure.
	bad := points[0]
	bad.Index = 1
	bad.Model = "vanished"
	points = append(points, bad)
	results, err := Run(context.Background(), points, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Errorf("healthy point failed: %v", results[0].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "vanished") {
		t.Errorf("bad point error = %v, want unknown model", results[1].Err)
	}
}

// TestRunCancellation: a cancelled context stops the sweep, marks the
// unstarted points with the context error and reports it; serial or not,
// OnResult still hears of every point once.
func TestRunCancellation(t *testing.T) {
	points, err := tinySpec().Expand(arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		ckpt := NewCheckpoint("")
		calls := 0
		results, err := Run(ctx, points, RunOptions{Workers: workers, Checkpoint: ckpt,
			OnResult: func(PointResult) { calls++ }})
		if err == nil {
			t.Fatal("cancelled sweep returned nil error")
		}
		for i, r := range results {
			if r.Err == nil {
				t.Errorf("point %d ran despite cancelled context", i)
			}
		}
		if calls != len(points) {
			t.Errorf("workers=%d: OnResult called %d times, want %d", workers, calls, len(points))
		}
		// Cancellation must not be persisted as a point failure: a resumed
		// sweep has to re-run these points, not restore "context canceled".
		if n := ckpt.Len(); n != 0 {
			t.Errorf("checkpoint recorded %d cancelled points, want 0", n)
		}
	}
}

// TestRunSubset: Run indexes results by slice position, so it works on a
// subset of expanded points (e.g. re-running a failed tail) whose
// Point.Index values exceed the slice bounds.
func TestRunSubset(t *testing.T) {
	points, err := tinySpec().Expand(arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tail := points[len(points)-3:]
	results, err := Run(context.Background(), tail, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("subset run returned %d results, want 3", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("subset point %d failed: %v", i, r.Err)
		}
		if r.Point.Key() != tail[i].Key() {
			t.Errorf("result %d is point %s, want %s", i, r.Point.Label(), tail[i].Label())
		}
	}
}

// TestOnResultCallback: every point is reported exactly once.
func TestOnResultCallback(t *testing.T) {
	points, err := tinySpec().Expand(arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	_, err = Run(context.Background(), points, RunOptions{
		Workers:  3,
		OnResult: func(r PointResult) { seen[r.Point.Index]++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(points) {
		t.Fatalf("callback saw %d points, want %d", len(seen), len(points))
	}
	for i, n := range seen {
		if n != 1 {
			t.Errorf("point %d reported %d times", i, n)
		}
	}
}

// TestRunReportsCompileSimSplit: every successful point carries a non-zero
// simulate time, cache-hit points report (near-)zero compile time relative
// to the miss that built the artifact, and checkpoint-restored points
// report zero for both.
func TestRunReportsCompileSimSplit(t *testing.T) {
	spec := tinySpec()
	base := arch.DefaultConfig()
	points, err := spec.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCompileCache()
	results, err := Run(context.Background(), points, RunOptions{Workers: 1, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		if r.SimTime <= 0 {
			t.Errorf("point %d: SimTime = %v, want > 0", i, r.SimTime)
		}
		if r.CompileTime <= 0 {
			t.Errorf("point %d: CompileTime = %v, want > 0", i, r.CompileTime)
		}
	}
	// Restored points carry no timing: they did no work.
	cp := NewCheckpoint("")
	for i := range results {
		cp.Record(results[i].Point.Key(), &results[i])
	}
	restored, err := Run(context.Background(), points, RunOptions{Workers: 1, Cache: cache, Checkpoint: cp})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range restored {
		if !r.Cached {
			t.Fatalf("point %d not restored", i)
		}
		if r.CompileTime != 0 || r.SimTime != 0 {
			t.Errorf("restored point %d reports timing %v/%v", i, r.CompileTime, r.SimTime)
		}
	}
}

// TestSweepBuildsChipPerWorker: a one-worker sweep over MG sizes 4, 8 and
// 16 builds one chip and retargets it from point to point, backing again the
// macro groups that must grow when the MG size does. A chip holds 64 cores x
// (512 KB of local memory + 16 macro groups of 512 rows x 8·MG channels) +
// 16 MB of global memory: 64, 80 and 112 MB at the three sizes. The whole
// sweep, compiles included, must allocate less than those three chips
// together, which a sweep building a chip per architecture allocates at the
// least, and less than one chip's 32 MB of local memory, which a chip
// backing its local memory at build allocates. Measured on linux/amd64:
// 12.2 MB (the local memory, macro groups and global memory the tiny models
// touch); 42.2 MB when local memory was backed at build; 168.6 MB when a
// chip backed its whole capacity at build; 2,060.8 MB when, on top of that,
// every change of architecture built a new chip, as here at every point.
func TestSweepBuildsChipPerWorker(t *testing.T) {
	mgs := []int{4, 8, 16}
	points, err := (&Spec{Models: []string{"tinycnn", "tinymlp", "tinyresnet", "tinymobile"},
		Strategies: []string{"generic", "dp"}, MGSizes: mgs}).Expand(arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var chips uint64
	base := arch.DefaultConfig()
	local := uint64(base.NumCores() * base.Core.LocalMemBytes)
	for _, mg := range mgs {
		cfg := arch.DefaultConfig().WithMacrosPerGroup(mg)
		chips += uint64(cfg.NumCores()*(cfg.Core.LocalMemBytes+cfg.Core.NumMacroGroups*cfg.Unit.MacroRows*cfg.GroupChannels()) +
			cfg.Chip.GlobalMemBytes)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	results, err := Run(context.Background(), points, RunOptions{Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d points allocated %.1f MB; a chip per MG size is %.1f MB", len(points), float64(got)/(1<<20), float64(chips)/(1<<20))
	if got >= min(chips, local) {
		t.Errorf("%d points allocated %d bytes, want under a chip per MG size (%d) and a chip's local memory (%d)",
			len(points), got, chips, local)
	}
}

// TestSweepMatchesFreshChips: points that reuse a worker's chip, across
// models, strategies and four architectures in alternation — MG sizes 4 and
// 16, so that two workers grow and shrink their macro groups, by flit widths
// 8 and 16, every point at two seeds — report what a fresh chip with the
// point's own seeded weights reports for each: output, cycles, energy and
// per-core stats.
func TestSweepMatchesFreshChips(t *testing.T) {
	points, err := (&Spec{Models: []string{"tinycnn", "tinyresnet"}, Strategies: []string{"generic", "dp"},
		MGSizes: []int{4, 16}, FlitBytes: []int{8, 16}}).Expand(arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points {
		p.Seed++
		points = append(points, p)
	}
	cache := NewCompileCache()
	results, err := Run(context.Background(), points, RunOptions{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
		p := r.Point
		g := model.Zoo(p.Model)
		compiled, err := cache.Compile(g, &p.Config, compiler.Options{Strategy: p.Strategy})
		if err != nil {
			t.Fatal(err)
		}
		s, err := core.NewSession(compiled, model.NewSeededWeights(g, p.Seed), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := s.Infer(context.Background(), model.SeededInput(g.Nodes[0].OutShape, p.Seed+1))
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Output.Data, r.Result.Output.Data) || !reflect.DeepEqual(fresh.Stats, r.Result.Stats) {
			t.Errorf("point %s differs from a fresh chip: cycles %d vs %d", p.Label(), r.Result.Stats.Cycles, fresh.Stats.Cycles)
		}
	}
}

// TestSweepTilesOncePerMG: a sweep of one model x 3 strategies x 2 MG sizes
// x 2 flit widths, on two workers, makes one tile cache for the model and
// seed, which tiles each weighted node once per MG size: the six points of
// an MG size share its tiles whatever their strategy or flit width.
func TestSweepTilesOncePerMG(t *testing.T) {
	points, err := (&Spec{Models: []string{"tinyresnet"}, Strategies: []string{"generic", "duplication", "dp"},
		MGSizes: []int{4, 16}, FlitBytes: []int{8, 16}}).Expand(arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var caches []*compiler.WeightTiles
	testTiles = func(c *compiler.WeightTiles) {
		mu.Lock()
		caches = append(caches, c)
		mu.Unlock()
	}
	defer func() { testTiles = nil }()
	results, err := Run(context.Background(), points, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d: %v", i, r.Err)
		}
	}
	weighted := 0
	for _, n := range model.Zoo("tinyresnet").Nodes {
		if n.WeightBytes(1) > 0 {
			weighted++
		}
	}
	if len(caches) != 1 {
		t.Fatalf("%d tile caches for one model and seed", len(caches))
	}
	if got, want := caches[0].Builds(), 2*weighted; got != want {
		t.Errorf("%d points tiled %d regions, want %d: %d weighted nodes at 2 MG sizes", len(points), got, want, weighted)
	}
}
