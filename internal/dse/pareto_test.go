package dse

import (
	"errors"
	"math"
	"testing"
)

// mkResults builds synthetic sweep results from (TOPS, energy) pairs.
func mkResults(points [][2]float64) []PointResult {
	rs := make([]PointResult, len(points))
	for i, p := range points {
		rs[i] = PointResult{
			Point:   Point{Index: i},
			Metrics: Metrics{TOPS: p[0], EnergyMJ: p[1], Seconds: 1 / p[0]},
		}
	}
	return rs
}

// TestParetoFront checks frontier extraction on a hand-built point set
// with dominated points, incomparable points and an exact duplicate.
func TestParetoFront(t *testing.T) {
	rs := mkResults([][2]float64{
		{1.0, 10.0}, // 0: dominated by 2
		{2.0, 8.0},  // 1: dominated by 2
		{3.0, 5.0},  // 2: optimal
		{4.0, 6.0},  // 3: optimal (faster than 2, costlier)
		{2.5, 4.0},  // 4: optimal (slower than 2, cheaper)
		{3.0, 5.0},  // 5: duplicate of 2 — neither dominates, both kept
		{0.5, 20.0}, // 6: dominated by everything
	})
	want := []int{2, 3, 4, 5}
	got := ParetoIndices(rs)
	if len(got) != len(want) {
		t.Fatalf("frontier = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frontier = %v, want %v", got, want)
		}
	}
	front := ParetoFront(rs)
	if len(front) != 4 || front[0].Point.Index != 2 {
		t.Errorf("ParetoFront returned %d rows, first index %d", len(front), front[0].Point.Index)
	}
}

// TestParetoSkipsErrors: failed points neither join nor prune the frontier.
func TestParetoSkipsErrors(t *testing.T) {
	rs := mkResults([][2]float64{
		{9.0, 1.0}, // 0: would dominate everything, but it failed
		{1.0, 2.0}, // 1: optimal among successes
	})
	rs[0].Err = errors.New("simulation exploded")
	got := ParetoIndices(rs)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("frontier with errored dominator = %v, want [1]", got)
	}
}

// TestBest covers the ready-made objectives and the all-failed case.
func TestBest(t *testing.T) {
	rs := mkResults([][2]float64{{1, 10}, {4, 8}, {2, 2}})
	if b, ok := Best(rs, ScoreTOPS); !ok || b.Point.Index != 1 {
		t.Errorf("ScoreTOPS best = %v, want index 1", b.Point.Index)
	}
	if b, ok := Best(rs, ScoreEnergy); !ok || b.Point.Index != 2 {
		t.Errorf("ScoreEnergy best = %v, want index 2", b.Point.Index)
	}
	// EDP: energy*seconds = 10*1, 8*0.25, 2*0.5 → index 2 wins.
	if b, ok := Best(rs, ScoreEDP); !ok || b.Point.Index != 2 {
		t.Errorf("ScoreEDP best = %v, want index 2", b.Point.Index)
	}
	for i := range rs {
		rs[i].Err = errors.New("failed")
	}
	if _, ok := Best(rs, ScoreTOPS); ok {
		t.Error("Best found a point among all-failed results")
	}
}

// TestResultTable renders knobs, Pareto markers and errors.
func TestResultTable(t *testing.T) {
	rs := mkResults([][2]float64{{1, 10}, {2, 5}})
	rs[0].Err = errors.New("boom")
	rs[1].Point.MGSize = 8
	rs[1].Point.Mesh = [2]int{4, 4}
	tbl := ResultTable("test sweep", rs)
	if len(tbl.Rows) != 2 {
		t.Fatalf("table rows = %d, want 2", len(tbl.Rows))
	}
	if tbl.Rows[0][11] != "boom" {
		t.Errorf("error column = %q, want boom", tbl.Rows[0][11])
	}
	if tbl.Rows[1][10] != "*" {
		t.Errorf("pareto column = %q, want *", tbl.Rows[1][10])
	}
	if tbl.Rows[1][4] != "4x4" {
		t.Errorf("mesh column = %q, want 4x4", tbl.Rows[1][4])
	}
}

// TestRanks: hand-built set with three nondomination layers.
func TestRanks(t *testing.T) {
	objs := []Objective{
		{TOPS: 3, EnergyMJ: 1}, // rank 0 (best energy, ties best TOPS)
		{TOPS: 2, EnergyMJ: 2}, // rank 2: dominated by 3, which is rank 1
		{TOPS: 1, EnergyMJ: 3}, // rank 3: dominated by 1
		{TOPS: 3, EnergyMJ: 2}, // rank 1: dominated by 0 only
		{TOPS: 4, EnergyMJ: 4}, // rank 0: best TOPS overall
	}
	want := []int{0, 2, 3, 1, 0}
	got := Ranks(objs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("rank[%d] = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestRanksDuplicates: identical points share a rank (neither dominates).
func TestRanksDuplicates(t *testing.T) {
	objs := []Objective{{TOPS: 1, EnergyMJ: 1}, {TOPS: 1, EnergyMJ: 1}}
	got := Ranks(objs)
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("duplicate points ranked %v, want [0 0]", got)
	}
}

// TestHypervolume: two-point frontier against a hand-computed reference.
func TestHypervolume(t *testing.T) {
	ref := Objective{TOPS: 0, EnergyMJ: 10}
	objs := []Objective{
		{TOPS: 2, EnergyMJ: 4},
		{TOPS: 4, EnergyMJ: 6},
		{TOPS: 1, EnergyMJ: 8}, // dominated: contributes nothing
	}
	// Sweep: (4-0)*(10-6) = 16, then (2-0)*(6-4) = 4 → 20.
	if hv := Hypervolume(objs, ref); math.Abs(hv-20) > 1e-12 {
		t.Errorf("hypervolume = %v, want 20", hv)
	}
	if hv := Hypervolume(nil, ref); hv != 0 {
		t.Errorf("empty hypervolume = %v", hv)
	}
	// Points outside the reference box are ignored.
	if hv := Hypervolume([]Objective{{TOPS: -1, EnergyMJ: 5}, {TOPS: 1, EnergyMJ: 11}}, ref); hv != 0 {
		t.Errorf("out-of-box hypervolume = %v", hv)
	}
}

// TestHypervolumeMonotone: adding a nondominated point never shrinks the
// hypervolume; recovering a better frontier strictly grows it.
func TestHypervolumeMonotone(t *testing.T) {
	ref := Objective{TOPS: 0, EnergyMJ: 10}
	base := []Objective{{TOPS: 2, EnergyMJ: 4}}
	hv1 := Hypervolume(base, ref)
	hv2 := Hypervolume(append(base, Objective{TOPS: 4, EnergyMJ: 6}), ref)
	if hv2 <= hv1 {
		t.Errorf("hypervolume did not grow: %v -> %v", hv1, hv2)
	}
}

// TestSelectBest: truncation keeps the frontier first and breaks rank ties
// by crowding, deterministically.
func TestSelectBest(t *testing.T) {
	objs := []Objective{
		{TOPS: 1, EnergyMJ: 9}, // rank 1
		{TOPS: 5, EnergyMJ: 5}, // rank 0
		{TOPS: 2, EnergyMJ: 2}, // rank 0
		{TOPS: 1, EnergyMJ: 1}, // rank 0
	}
	got := selectBest(objs, 3)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("selectBest = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selectBest = %v, want %v", got, want)
		}
	}
	// n >= len: identity.
	if got := selectBest(objs, 10); len(got) != len(objs) {
		t.Errorf("selectBest over-length = %v", got)
	}
	// Determinism: repeated calls agree.
	for trial := 0; trial < 5; trial++ {
		again := selectBest(objs, 3)
		for i := range got {
			if again[i] != got[i] {
				t.Fatalf("selectBest unstable: %v vs %v", again, got)
			}
		}
	}
}
