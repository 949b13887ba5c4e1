package dse

import (
	"math"
	"sync"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/artifact"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
)

// TestFingerprintStability: the fingerprint is a pure function of the
// architectural parameters — identical configs agree, the cosmetic name is
// ignored, and every swept knob changes it.
func TestFingerprintStability(t *testing.T) {
	base := arch.DefaultConfig()
	same := arch.DefaultConfig()
	if artifact.ConfigFingerprint(&base) != artifact.ConfigFingerprint(&same) {
		t.Fatal("identical configs fingerprint differently")
	}
	renamed := base
	renamed.Name = "other-name"
	if artifact.ConfigFingerprint(&base) != artifact.ConfigFingerprint(&renamed) {
		t.Error("config name must not affect the fingerprint")
	}
	variants := map[string]arch.Config{
		"mg":       base.WithMacrosPerGroup(4),
		"flit":     base.WithFlitBytes(16),
		"mesh":     base.WithCoreMesh(4, 4),
		"localmem": base.WithLocalMemBytes(256 << 10),
	}
	seen := map[string]string{artifact.ConfigFingerprint(&base): "base"}
	for knob, cfg := range variants {
		fp := artifact.ConfigFingerprint(&cfg)
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s variant collides with %s", knob, prev)
		}
		seen[fp] = knob
	}
	// Deep knobs must matter too, not just the With-helpers.
	deep := base
	deep.Unit.InputBits = 4
	if artifact.ConfigFingerprint(&base) == artifact.ConfigFingerprint(&deep) {
		t.Error("unit-level knob change did not change the fingerprint")
	}
}

// TestCacheKeyDiscriminates: the compile key separates models and
// strategies sharing one hardware config, and the cache also keeps a
// renamed copy of a graph apart, so no caller gets a Compiled carrying
// another graph's name.
func TestCacheKeyDiscriminates(t *testing.T) {
	cfg := arch.DefaultConfig()
	tinycnn, tinymlp := model.TinyCNN(), model.TinyMLP()
	keys := map[string]bool{}
	for _, k := range []string{
		artifact.Key(artifact.GraphFingerprint(tinycnn), &cfg, compiler.Options{Strategy: compiler.StrategyGeneric}),
		artifact.Key(artifact.GraphFingerprint(tinycnn), &cfg, compiler.Options{Strategy: compiler.StrategyDP}),
		artifact.Key(artifact.GraphFingerprint(tinymlp), &cfg, compiler.Options{Strategy: compiler.StrategyGeneric}),
	} {
		if keys[k] {
			t.Fatalf("duplicate compile key %q", k)
		}
		keys[k] = true
	}
	renamed := *tinycnn
	renamed.Name = "tinycnn-copy"
	cache := NewCompileCache()
	opt := compiler.Options{Strategy: compiler.StrategyGeneric}
	a, err := cache.Compile(tinycnn, &cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.Compile(&renamed, &cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.Name != tinycnn.Name || b.Graph.Name != renamed.Name {
		t.Errorf("compiled names %q and %q, want %q and %q", a.Graph.Name, b.Graph.Name, tinycnn.Name, renamed.Name)
	}
}

// TestCacheDistinguishesSameNameGraphs: two structurally different graphs
// that share a Name must not share a compiled artifact — the cache keys on
// the graph fingerprint, not just the name.
func TestCacheDistinguishesSameNameGraphs(t *testing.T) {
	cfg := arch.DefaultConfig()
	g1, x := model.NewGraph("custom", model.Shape{H: 8, W: 8, C: 4})
	x = g1.Conv("c1", x, 8, 3, 1, 1, true)
	g1.Dense("fc", g1.Flatten("f", g1.GlobalAvgPool("gap", x)), 5, false)
	g2, y := model.NewGraph("custom", model.Shape{H: 8, W: 8, C: 4})
	y = g2.Conv("c1", y, 16, 3, 1, 1, true) // wider conv, same names
	g2.Dense("fc", g2.Flatten("f", g2.GlobalAvgPool("gap", y)), 5, false)
	if artifact.GraphFingerprint(g1) == artifact.GraphFingerprint(g2) {
		t.Fatal("distinct graphs share a fingerprint")
	}
	if artifact.GraphFingerprint(g1) != artifact.GraphFingerprint(g1) {
		t.Fatal("fingerprint is not stable")
	}
	// Non-finite quantization scales in user-built graphs must fingerprint
	// (differently), not panic.
	gNaN, z := model.NewGraph("custom", model.Shape{H: 4, W: 4, C: 2})
	gNaN.Sigmoid("sig", z, float32(math.NaN()), 1)
	gFin, z2 := model.NewGraph("custom", model.Shape{H: 4, W: 4, C: 2})
	gFin.Sigmoid("sig", z2, 0.5, 1)
	if artifact.GraphFingerprint(gNaN) == artifact.GraphFingerprint(gFin) {
		t.Fatal("NaN-scale graph shares a fingerprint with a finite one")
	}
	c := NewCompileCache()
	c1, err := c.Compile(g1, &cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := c.Compile(g2, &cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("same-name graphs shared one compiled artifact")
	}
	if c.CompileCalls() != 2 {
		t.Errorf("compile calls = %d, want 2", c.CompileCalls())
	}
	// The same graph value still hits the cache.
	again, err := c.Compile(g1, &cfg, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if again != c1 || c.CompileCalls() != 2 {
		t.Error("identical graph did not hit the cache")
	}
}

// TestCompileCacheDedup: the compile cache is the one place a compile is
// deduplicated. Eight concurrent first callers of one key run one compile
// and share its artifact; a different strategy is a different artifact.
func TestCompileCacheDedup(t *testing.T) {
	g := model.Zoo("tinycnn")
	cfg := arch.DefaultConfig()
	opt := compiler.Options{Strategy: compiler.StrategyGeneric}
	cache := NewCompileCache()
	const callers = 8
	got := make([]*compiler.Compiled, callers)
	infos := make([]CompileInfo, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var err error
			got[i], infos[i], err = cache.CompileWithInfo(g, &cfg, opt)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	fresh := 0
	for i := range callers {
		if got[i] == nil || got[i] != got[0] {
			t.Fatalf("caller %d got a different artifact for the same key", i)
		}
		if infos[i].Source == SourceFresh {
			fresh++
		}
	}
	if cache.CompileCalls() != 1 || cache.Hits() != callers-1 || fresh != 1 {
		t.Errorf("%d first callers: CompileCalls %d, Hits %d, %d fresh; want 1, %d, 1",
			callers, cache.CompileCalls(), cache.Hits(), fresh, callers-1)
	}
	// A different strategy is a different artifact.
	if _, err := cache.Compile(g, &cfg, compiler.Options{Strategy: compiler.StrategyDP}); err != nil {
		t.Fatal(err)
	}
	if got := cache.CompileCalls(); got != 2 {
		t.Errorf("CompileCalls after second strategy = %d, want 2", got)
	}
}

// TestCacheSharesContextsAcrossPoints: compiling one model at many
// architecture points and strategies runs the compiler frontend exactly
// once per graph — the CompileContext is shared, while artifacts stay
// per-(config, strategy).
func TestCacheSharesContextsAcrossPoints(t *testing.T) {
	cache := NewCompileCache()
	g := model.TinyCNN()
	base := arch.DefaultConfig()
	compiles := 0
	for _, mg := range []int{4, 8, 16} {
		cfg := base.WithMacrosPerGroup(mg)
		for _, s := range []compiler.Strategy{compiler.StrategyGeneric, compiler.StrategyDP} {
			if _, err := cache.Compile(g, &cfg, compiler.Options{Strategy: s}); err != nil {
				t.Fatalf("mg=%d %v: %v", mg, s, err)
			}
			compiles++
		}
	}
	if got := cache.CompileCalls(); got != int64(compiles) {
		t.Errorf("CompileCalls = %d, want %d", got, compiles)
	}
	if got := cache.Contexts(); got != 1 {
		t.Errorf("Contexts = %d, want 1 (one graph)", got)
	}
	// A second model adds exactly one context.
	mlp := model.TinyMLP()
	if _, err := cache.Compile(mlp, &base, compiler.Options{Strategy: compiler.StrategyGeneric}); err != nil {
		t.Fatal(err)
	}
	if got := cache.Contexts(); got != 2 {
		t.Errorf("Contexts = %d, want 2", got)
	}
	// The context is also available directly and matches the graph.
	cx, err := cache.context(artifact.GraphFingerprint(g), g)
	if err != nil {
		t.Fatal(err)
	}
	if cx.Graph() != g {
		t.Error("Context returned a different graph's frontend")
	}
}
