package cimflow_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cimflow"
)

// TestEngineCompileOnceInferMany is the acceptance test of the Engine API:
// compiling a model once and calling Infer N times performs exactly one
// compilation (asserted via the engine's cache stats), and every pooled
// run is byte-identical to an independent deprecated Run call with the
// same weights and input.
func TestEngineCompileOnceInferMany(t *testing.T) {
	cfg := cimflow.DefaultConfig()
	g, err := cimflow.LookupModel("tinyresnet")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := cimflow.NewEngine(cfg,
		cimflow.WithStrategy(cimflow.StrategyDP),
		cimflow.WithSeed(7),
		cimflow.WithMaxPooledChips(1)) // force the chip-reuse path
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.Session(g)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const n = 4
	for i := 0; i < n; i++ {
		// An independent engine compiles, builds a chip and simulates from
		// scratch with the same weights (seed 7) and input (seed 8): the
		// pooled session must reproduce that single-shot result exactly.
		got, err := sess.Infer(ctx, sess.SeededInput(8))
		if err != nil {
			t.Fatalf("infer %d: %v", i, err)
		}
		fresh := freshSession(t, g, cfg, cimflow.StrategyDP, 7)
		want, err := fresh.Infer(ctx, fresh.SeededInput(8))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got.Stats.Cycles != want.Stats.Cycles || got.EnergyMJ != want.EnergyMJ {
			t.Fatalf("infer %d: %d cycles %v mJ, independent run %d cycles %v mJ",
				i, got.Stats.Cycles, got.EnergyMJ, want.Stats.Cycles, want.EnergyMJ)
		}
		for j := range want.Output.Data {
			if got.Output.Data[j] != want.Output.Data[j] {
				t.Fatalf("infer %d: output byte %d differs from independent run", i, j)
			}
		}
	}
	if calls := engine.CompileCalls(); calls != 1 {
		t.Errorf("engine performed %d compilations for %d inferences, want exactly 1", calls, n)
	}
	// Re-requesting the session must reuse it, not recompile.
	again, err := engine.Session(g)
	if err != nil {
		t.Fatal(err)
	}
	if again != sess {
		t.Error("Session returned a new handle for identical options")
	}
	if calls := engine.CompileCalls(); calls != 1 {
		t.Errorf("session re-request recompiled: %d calls", calls)
	}
}

// TestEngineInferCancelled: an already-cancelled context must abort Infer
// with ctx.Err() before any simulation work happens.
func TestEngineInferCancelled(t *testing.T) {
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.SessionFor("tinymlp")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.Infer(ctx, sess.SeededInput(1)); !errors.Is(err, context.Canceled) {
		t.Errorf("Infer with cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestEngineConcurrentInfer drives one session from many goroutines — the
// serving pattern — and checks identical inputs produce identical outputs.
func TestEngineConcurrentInfer(t *testing.T) {
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig(), cimflow.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.SessionFor("tinycnn")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ref, err := sess.Infer(ctx, sess.SeededInput(9))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	outs := make([]*cimflow.Result, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w], errs[w] = sess.Infer(ctx, sess.SeededInput(9))
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if outs[w].Stats.Cycles != ref.Stats.Cycles {
			t.Errorf("worker %d: %d cycles, want %d", w, outs[w].Stats.Cycles, ref.Stats.Cycles)
		}
		for j := range ref.Output.Data {
			if outs[w].Output.Data[j] != ref.Output.Data[j] {
				t.Fatalf("worker %d: output differs at byte %d", w, j)
			}
		}
	}
	if calls := engine.CompileCalls(); calls != 1 {
		t.Errorf("%d compilations under concurrency, want 1", calls)
	}
}

// TestEnginePoolStress: 64 goroutines share one engine whose pool holds at
// most 3 chips, each running batches of one of four models, two at lane
// capacity 1 and two at 8, on a small architecture (a 4x4 mesh with 128 KB
// of local memory a core, so an 8-lane chip is 16 MB). Live chips never
// exceed the bound, every result — output and full Stats — equals a fresh
// session's run of the same batch, and no goroutine outlives Engine.Close.
func TestEnginePoolStress(t *testing.T) {
	const bound, goroutines, rounds, maxBatch = 3, 64, 2, 4
	cfg := cimflow.DefaultConfig().WithCoreMesh(4, 4).WithLocalMemBytes(128 << 10)
	models := []struct {
		name  string
		lanes int
	}{{"tinymlp", 1}, {"tinycnn", 8}, {"tinyresnet", 1}, {"tinymobile", 8}}
	ctx := context.Background()
	opts := func(lanes int) []cimflow.Option {
		return []cimflow.Option{cimflow.WithStrategy(cimflow.StrategyDP), cimflow.WithSeed(1), cimflow.WithSimLanes(lanes)}
	}
	batch := func(sess *cimflow.Session, n int) []cimflow.Tensor {
		ins := make([]cimflow.Tensor, n)
		for i := range ins {
			ins[i] = sess.SeededInput(uint64(10 + i))
		}
		return ins
	}
	// want[m][n-1] is a fresh session's run of model m's batch of n.
	want := make([][][]*cimflow.Result, len(models))
	for m, md := range models {
		engine, err := cimflow.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= maxBatch; n++ {
			fresh, err := engine.SessionFor(md.name, opts(md.lanes)...)
			if err != nil {
				t.Fatal(err)
			}
			res, err := fresh.InferBatch(ctx, batch(fresh, n))
			if err != nil {
				t.Fatal(err)
			}
			want[m] = append(want[m], res)
			fresh.Close()
		}
		engine.Close()
	}

	before := runtime.NumGoroutine()
	engine, err := cimflow.NewEngine(cfg, cimflow.WithMaxPooledChips(bound))
	if err != nil {
		t.Fatal(err)
	}
	var over atomic.Int64 // a sample of live chips past the bound
	sample := func() {
		if n := engine.LiveChips(); n > bound {
			over.Store(int64(n))
		}
	}
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(100 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := w % len(models)
			sess, err := engine.SessionFor(models[m].name, opts(models[m].lanes)...)
			if err != nil {
				t.Error(err)
				return
			}
			for r := range rounds {
				n := 1 + (w/len(models)+r)%maxBatch
				res, err := sess.InferBatch(ctx, batch(sess, n))
				sample()
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", w, r, err)
					return
				}
				for i, got := range res {
					ref := want[m][n-1][i]
					if !reflect.DeepEqual(got.Output, ref.Output) || !reflect.DeepEqual(got.Stats, ref.Stats) {
						t.Errorf("goroutine %d round %d: %s input %d of %d differs from a fresh session's run",
							w, r, models[m].name, i, n)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sampled
	if n := over.Load(); n != 0 {
		t.Errorf("%d live chips, want at most %d", n, bound)
	}
	if err := engine.Close(); err != nil {
		t.Fatal(err)
	}
	if n := engine.LiveChips(); n != 0 {
		t.Errorf("%d live chips after Close", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the engine", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEngineInferBatch: batch results carry per-run stats and match the
// input order.
func TestEngineInferBatch(t *testing.T) {
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.SessionFor("tinymlp")
	if err != nil {
		t.Fatal(err)
	}
	inputs := []cimflow.Tensor{sess.SeededInput(1), sess.SeededInput(2), sess.SeededInput(3)}
	results, err := sess.InferBatch(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(inputs) {
		t.Fatalf("%d results for %d inputs", len(results), len(inputs))
	}
	for i, r := range results {
		if r == nil || r.Stats == nil {
			t.Fatalf("result %d missing stats", i)
		}
		want, err := sess.Infer(context.Background(), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Output.Data {
			if r.Output.Data[j] != want.Output.Data[j] {
				t.Fatalf("batch result %d differs from individual inference", i)
			}
		}
	}
}

// TestEngineValidateSession: the session-level golden-reference check.
func TestEngineValidateSession(t *testing.T) {
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig(),
		cimflow.WithStrategy(cimflow.StrategyDP), cimflow.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := engine.SessionFor("tinymobile")
	if err != nil {
		t.Fatal(err)
	}
	mism, err := sess.Validate(context.Background(), sess.SeededInput(6))
	if err != nil {
		t.Fatal(err)
	}
	if mism != 0 {
		t.Errorf("%d mismatches against the golden reference", mism)
	}
}

// TestLookupModel: known names resolve, unknown names get a helpful error.
func TestLookupModel(t *testing.T) {
	g, err := cimflow.LookupModel("mobilenetv2")
	if err != nil || g == nil {
		t.Fatalf("LookupModel(mobilenetv2) = %v, %v", g, err)
	}
	if _, err := cimflow.LookupModel("nope"); err == nil {
		t.Fatal("LookupModel accepted an unknown name")
	} else {
		for _, name := range cimflow.ModelNames() {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not list known model %q", err, name)
			}
		}
	}
}

// TestSessionReuseKeying: SessionFor must reuse one Session per name, and
// an option that changes nothing for a session must not key a new one —
// the deprecated worker count, or a chip bound, which is the engine's.
func TestSessionReuseKeying(t *testing.T) {
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := engine.SessionFor("tinymlp")
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.SessionFor("tinymlp")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("SessionFor returned distinct sessions for the same name")
	}
	// The deprecated worker count is a no-op and must not split the pool.
	workers, err := engine.SessionFor("tinymlp", cimflow.WithSimWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if workers != a {
		t.Error("the deprecated worker count keyed a separate session")
	}
	pooled, err := engine.SessionFor("tinymlp", cimflow.WithMaxPooledChips(1))
	if err != nil {
		t.Fatal(err)
	}
	if pooled != a {
		t.Error("a session-level chip bound keyed a separate session")
	}
	if calls := engine.CompileCalls(); calls != 1 {
		t.Errorf("%d compilations for one session, want 1", calls)
	}
}

// TestEngineRejectsBadConfig: NewEngine validates the architecture.
func TestEngineRejectsBadConfig(t *testing.T) {
	cfg := cimflow.DefaultConfig()
	cfg.Chip.CoreRows = 0
	if _, err := cimflow.NewEngine(cfg); err == nil {
		t.Error("NewEngine accepted an invalid architecture")
	}
}

// TestEngineSharesCompileContexts: sessions for every strategy of one
// model perform three compilations but share a single compiler frontend
// (CompileContext), keyed on the graph's structural fingerprint.
func TestEngineSharesCompileContexts(t *testing.T) {
	engine, err := cimflow.NewEngine(cimflow.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, err := cimflow.LookupModel("tinyresnet")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []cimflow.Strategy{cimflow.StrategyGeneric, cimflow.StrategyDuplication, cimflow.StrategyDP} {
		if _, err := engine.Session(g, cimflow.WithStrategy(s)); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
	if got := engine.CompileCalls(); got != 3 {
		t.Errorf("CompileCalls = %d, want 3", got)
	}
	if got := engine.CompileContexts(); got != 1 {
		t.Errorf("CompileContexts = %d, want 1 (one graph)", got)
	}
	// A structurally identical copy of the graph maps to the same context.
	copyG, _ := cimflow.LookupModel("tinyresnet")
	if _, err := engine.Session(copyG, cimflow.WithStrategy(cimflow.StrategyDP), cimflow.WithSeed(3)); err != nil {
		t.Fatal(err)
	}
	if got := engine.CompileContexts(); got != 1 {
		t.Errorf("CompileContexts after re-lookup = %d, want 1", got)
	}
}

// TestEngineArtifactStoreWarmStart is the engine-level proof of the
// artifact-store tier: a first engine compiles fresh and persists, a
// second engine over the same directory loads from disk without compiling,
// and both serve byte-identical inference results. Engine.Close must close
// the store it owns and stay idempotent.
func TestEngineArtifactStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	cfg := cimflow.DefaultConfig()
	g, err := cimflow.LookupModel("tinyresnet")
	if err != nil {
		t.Fatal(err)
	}

	// Cold process: compile fresh, persist on the way.
	store, err := cimflow.OpenArtifactStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cimflow.NewEngine(cfg,
		cimflow.WithStrategy(cimflow.StrategyDP),
		cimflow.WithArtifactStore(store))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := cold.Session(g)
	if err != nil {
		t.Fatal(err)
	}
	if src := sess.CompileInfo().Source; src != cimflow.CompileFresh {
		t.Fatalf("cold engine compile source = %v, want fresh", src)
	}
	want, err := sess.Infer(context.Background(), sess.SeededInput(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal(err)
	}
	// The engine owned the store: it must be closed now.
	if _, _, err := store.Load("00"); !errors.Is(err, cimflow.ErrStoreClosed) {
		t.Fatalf("store open after Engine.Close: %v", err)
	}
	if err := cold.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}

	// Warm process: same directory, no compile.
	store2, err := cimflow.OpenArtifactStore(dir)
	if err != nil {
		t.Fatalf("reopening store after Engine.Close: %v", err)
	}
	warm, err := cimflow.NewEngine(cfg,
		cimflow.WithStrategy(cimflow.StrategyDP),
		cimflow.WithArtifactStore(store2))
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	sess2, err := warm.Session(g)
	if err != nil {
		t.Fatal(err)
	}
	if src := sess2.CompileInfo().Source; src != cimflow.CompileStore {
		t.Fatalf("warm engine compile source = %v, want store load", src)
	}
	if warm.CompileCalls() != 0 || warm.StoreLoads() != 1 {
		t.Fatalf("warm engine ran %d compiles, %d store loads; want 0 and 1",
			warm.CompileCalls(), warm.StoreLoads())
	}
	got, err := sess2.Infer(context.Background(), sess2.SeededInput(3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(int8Bytes(want.Output.Data), int8Bytes(got.Output.Data)) ||
		want.Stats.Cycles != got.Stats.Cycles {
		t.Fatal("store-loaded session diverges from fresh compile")
	}
}

func int8Bytes(v []int8) []byte {
	out := make([]byte, len(v))
	for i, b := range v {
		out[i] = byte(b)
	}
	return out
}
