package dse

import (
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/artifact"
	"cimflow/internal/compiler"
)

// TestExpandOrderAndKnobs: the cross-product is deterministic, ordered
// models → strategies → mg → flit → mesh → local memory, and every knob is
// applied to the derived config.
func TestExpandOrderAndKnobs(t *testing.T) {
	spec := &Spec{
		Models:     []string{"tinycnn", "tinymlp"},
		Strategies: []string{"generic", "dp"},
		MGSizes:    []int{4, 8},
		FlitBytes:  []int{8, 16},
	}
	base := arch.DefaultConfig()
	pts, err := spec.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2*2*2*2 {
		t.Fatalf("expanded %d points, want 16", len(pts))
	}
	// First block: tinycnn/generic sweeping mg outer, flit inner.
	wantFirst := []struct {
		mg, flit int
	}{{4, 8}, {4, 16}, {8, 8}, {8, 16}}
	for i, w := range wantFirst {
		p := pts[i]
		if p.Model != "tinycnn" || p.Strategy != compiler.StrategyGeneric ||
			p.MGSize != w.mg || p.FlitBytes != w.flit {
			t.Errorf("point %d = %s, want tinycnn/generic mg%d flit%d", i, p.Label(), w.mg, w.flit)
		}
		if p.Config.Core.MacrosPerGroup != w.mg || p.Config.Chip.NoCFlitBytes != w.flit {
			t.Errorf("point %d config knobs not applied", i)
		}
		if p.Index != i {
			t.Errorf("point %d has Index %d", i, p.Index)
		}
	}
	if pts[4].Strategy != compiler.StrategyDP {
		t.Errorf("point 4 strategy = %v, want dp", pts[4].Strategy)
	}
	if pts[8].Model != "tinymlp" {
		t.Errorf("point 8 model = %s, want tinymlp", pts[8].Model)
	}
	// Same spec expands to identical points (and keys) every time.
	again, err := spec.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i].Key() != again[i].Key() {
			t.Fatalf("expansion not deterministic at point %d", i)
		}
	}
}

// TestExpandEmptyAxesKeepBase: unswept axes leave the base config alone.
func TestExpandEmptyAxesKeepBase(t *testing.T) {
	spec := &Spec{Models: []string{"tinycnn"}}
	base := arch.DefaultConfig()
	pts, err := spec.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 {
		t.Fatalf("expanded %d points, want 1", len(pts))
	}
	p := pts[0]
	if p.Strategy != compiler.StrategyDP {
		t.Errorf("default strategy = %v, want dp", p.Strategy)
	}
	if p.Seed != 1 {
		t.Errorf("default seed = %d, want 1", p.Seed)
	}
	if artifact.ConfigFingerprint(&p.Config) != artifact.ConfigFingerprint(&base) {
		t.Error("empty axes changed the config")
	}
}

// TestExpandMeshAndLocalMem exercises the two knobs new to the engine.
func TestExpandMeshAndLocalMem(t *testing.T) {
	spec := &Spec{
		Models:     []string{"tinycnn"},
		Strategies: []string{"generic"},
		CoreMeshes: [][2]int{{8, 8}, {4, 4}},
		LocalMemKB: []int{512, 256},
	}
	pts, err := spec.Expand(arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("expanded %d points, want 4", len(pts))
	}
	last := pts[3]
	if last.Config.Chip.CoreRows != 4 || last.Config.Chip.CoreCols != 4 {
		t.Errorf("mesh knob not applied: %dx%d", last.Config.Chip.CoreRows, last.Config.Chip.CoreCols)
	}
	if last.Config.Core.LocalMemBytes != 256<<10 {
		t.Errorf("local memory knob not applied: %d", last.Config.Core.LocalMemBytes)
	}
}

// TestExpandErrors: unknown models, strategies and invalid derived
// configs fail expansion with a descriptive error.
func TestExpandErrors(t *testing.T) {
	base := arch.DefaultConfig()
	if _, err := (&Spec{}).Expand(base); err == nil {
		t.Error("empty model list accepted")
	}
	if _, err := (&Spec{Models: []string{"nosuch"}}).Expand(base); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := (&Spec{Models: []string{"tinycnn"}, Strategies: []string{"nope"}}).Expand(base); err == nil {
		t.Error("unknown strategy accepted")
	}
	bad := &Spec{Models: []string{"tinycnn"}, LocalMemKB: []int{-1}} // negative capacity
	if _, err := bad.Expand(base); err == nil {
		t.Error("invalid derived config accepted")
	}
}

// TestSpaceErrors: NewSpace rejects empty specs and unknown models; a
// search walks the space point by point, so an invalid derived config is
// a dead cell and an index outside the space errors, not wraps.
func TestSpaceErrors(t *testing.T) {
	base := arch.DefaultConfig()
	if _, err := NewSpace(&Spec{}, base); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := NewSpace(&Spec{Models: []string{"no-such-net"}}, base); err == nil {
		t.Error("unknown model accepted")
	}
	space, err := NewSpace(searchSpec(), base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := space.Point(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := space.Point(space.Size()); err == nil {
		t.Error("out-of-range index accepted")
	}
	bad := &Spec{Models: []string{"tinycnn"}, LocalMemKB: []int{-1}} // negative capacity
	dead, err := NewSpace(bad, base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dead.Point(0); err == nil {
		t.Error("invalid derived config accepted as a point")
	}
}

// TestCoordsIndexRoundTrip: Coords and Index are inverse bijections over
// the whole space.
func TestCoordsIndexRoundTrip(t *testing.T) {
	space, err := NewSpace(searchSpec(), arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < space.Size(); i++ {
		if back := space.Index(space.Coords(i)); back != i {
			t.Errorf("Index(Coords(%d)) = %d", i, back)
		}
	}
}

// TestNeighbors: the one-axis neighborhood has sum(size_a - 1) members,
// all distinct, none equal to the origin, each differing in one digit.
func TestNeighbors(t *testing.T) {
	space, err := NewSpace(searchSpec(), arch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, size := range space.radix() {
		want += size - 1
	}
	for i := 0; i < space.Size(); i++ {
		nbrs := space.Neighbors(i)
		if len(nbrs) != want {
			t.Fatalf("point %d has %d neighbors, want %d", i, len(nbrs), want)
		}
		seen := map[int]bool{}
		for _, n := range nbrs {
			if n == i {
				t.Errorf("point %d neighbors itself", i)
			}
			if seen[n] {
				t.Errorf("point %d neighbor %d repeated", i, n)
			}
			seen[n] = true
			a, b := space.Coords(i), space.Coords(n)
			diff := 0
			for k := range a {
				if a[k] != b[k] {
					diff++
				}
			}
			if diff != 1 {
				t.Errorf("neighbor %d of %d differs in %d axes", n, i, diff)
			}
		}
	}
}

// TestParseSpec round-trips the JSON format, including the partial base
// config overlay, and rejects unknown fields.
func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec([]byte(`{
		"name": "mini",
		"models": ["tinycnn"],
		"strategies": ["generic", "dp"],
		"mg_sizes": [4, 8],
		"core_meshes": [[4, 4]],
		"seed": 7,
		"base": {"clock_ghz": 2.0}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	base, err := spec.BaseConfig()
	if err != nil {
		t.Fatal(err)
	}
	if base.ClockGHz != 2.0 {
		t.Errorf("base overlay clock = %v, want 2.0", base.ClockGHz)
	}
	if base.Chip.CoreRows != 8 {
		t.Error("base overlay lost the defaults")
	}
	pts, err := spec.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Errorf("expanded %d points, want 4", len(pts))
	}
	if pts[0].Seed != 7 {
		t.Errorf("seed = %d, want 7", pts[0].Seed)
	}
	if _, err := ParseSpec([]byte(`{"models": ["tinycnn"], "typo_field": 1}`)); err == nil {
		t.Error("unknown spec field accepted")
	}
}

// TestExampleSpecIsValid: the -example template must expand cleanly.
func TestExampleSpecIsValid(t *testing.T) {
	spec := ExampleSpec()
	base, err := spec.BaseConfig()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Expand(base); err != nil {
		t.Fatal(err)
	}
}
