package dse

import (
	"context"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
)

// TestFig5RowsParallelInvariant: Fig. 5 rows — including the normalized
// columns computed against the generic baseline — are identical at any
// parallelism, and the baseline rows normalize to exactly 1.
func TestFig5RowsParallelInvariant(t *testing.T) {
	cfg := arch.DefaultConfig()
	models := []string{"tinycnn", "tinyresnet"}
	serial, err := RunFig5(context.Background(), cfg, models, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(models)*len(Fig5Strategies) {
		t.Fatalf("fig5 rows = %d, want %d", len(serial), len(models)*len(Fig5Strategies))
	}
	for _, r := range serial {
		if r.Strategy == compiler.StrategyGeneric && (r.NormSpeed != 1 || r.NormEnergy != 1) {
			t.Errorf("%s generic baseline norms = %v/%v, want 1/1", r.Model, r.NormSpeed, r.NormEnergy)
		}
	}
	parallel, err := RunFig5(context.Background(), cfg, models, RunOptions{Workers: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		// The compile/sim timing columns are wall-clock host measurements;
		// every simulated and derived column must be bit-identical.
		a, b := serial[i], parallel[i]
		a.CompileMS, a.SimMS, b.CompileMS, b.SimMS = 0, 0, 0, 0
		if a != b {
			t.Errorf("fig5 row %d diverged under parallelism: %+v != %+v", i, b, a)
		}
		if serial[i].SimMS <= 0 || parallel[i].SimMS <= 0 {
			t.Errorf("fig5 row %d missing sim time: %v / %v", i, serial[i].SimMS, parallel[i].SimMS)
		}
	}
	if Fig5Table(serial).Rows[0][0] != "tinycnn" {
		t.Error("fig5 table lost row order")
	}
}

// TestFigureTablesRender renders Fig. 5 of one benchmark network: three
// strategy rows, and dp no slower than generic.
func TestFigureTablesRender(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	rows, err := RunFig5(context.Background(), arch.DefaultConfig(), []string{"mobilenetv2"}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(Fig5Table(rows).Rows); n != 3 {
		t.Errorf("fig5 rows = %d, want 3", n)
	}
	var generic, dp int64
	for _, r := range rows {
		switch r.Strategy {
		case compiler.StrategyGeneric:
			generic = r.Cycles
		case compiler.StrategyDP:
			dp = r.Cycles
		}
	}
	if dp > generic {
		t.Errorf("DP (%d cycles) slower than generic (%d)", dp, generic)
	}
}

// TestFig6Fig7ShareCache: Fig. 7 run after Fig. 6 with a shared cache
// compiles only its DP half, and its generic rows equal Fig. 6's.
func TestFig6Fig7ShareCache(t *testing.T) {
	if testing.Short() {
		t.Skip("hardware sweep in -short mode")
	}
	cfg := arch.DefaultConfig()
	models := []string{"tinycnn"}
	cache := NewCompileCache()
	opt := RunOptions{Workers: 4, Cache: cache}
	rows6, err := RunFig6(context.Background(), cfg, models, opt)
	if err != nil {
		t.Fatal(err)
	}
	after6 := cache.CompileCalls()
	wantPoints := int64(len(Fig6MGSizes) * len(Fig6Flits))
	if after6 != wantPoints {
		t.Errorf("fig6 compiled %d artifacts, want %d", after6, wantPoints)
	}
	rows7, err := RunFig7(context.Background(), cfg, models, opt)
	if err != nil {
		t.Fatal(err)
	}
	if added := cache.CompileCalls() - after6; added != wantPoints {
		t.Errorf("fig7 compiled %d new artifacts, want %d (dp half only)", added, wantPoints)
	}
	if len(rows7) != 2*len(rows6) {
		t.Fatalf("fig7 rows = %d, want %d", len(rows7), 2*len(rows6))
	}
	for i, r6 := range rows6 {
		r7 := rows7[i]
		if r7.Strategy != compiler.StrategyGeneric || r7.TOPS != r6.TOPS || r7.EnergyMJ != r6.TotalMJ {
			t.Errorf("fig7 generic row %d != fig6 row: %+v vs %+v", i, r7, r6)
		}
	}
}
