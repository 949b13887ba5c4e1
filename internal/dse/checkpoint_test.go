package dse

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
)

// TestCheckpointResume: an interrupted sweep's checkpoint lets the re-run
// skip completed points (restoring their metrics) and only simulate the
// remainder; a changed knob never matches a stale entry.
func TestCheckpointResume(t *testing.T) {
	base := arch.DefaultConfig()
	points, err := (&Spec{
		Models:     []string{"tinycnn"},
		Strategies: []string{"generic", "dp"},
	}).Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")

	// First pass: run only the first point, as an interrupted sweep would.
	ckpt, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(context.Background(), points[:1], RunOptions{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Save(); err != nil {
		t.Fatal(err)
	}

	// Resume from disk: point 0 must come from the checkpoint, point 1 run.
	resumed, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Len() != 1 {
		t.Fatalf("reloaded checkpoint holds %d points, want 1", resumed.Len())
	}
	results, err := Run(context.Background(), points, RunOptions{Checkpoint: resumed})
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Cached {
		t.Error("completed point was re-simulated on resume")
	}
	if results[0].Metrics != first[0].Metrics {
		t.Errorf("restored metrics %+v != original %+v", results[0].Metrics, first[0].Metrics)
	}
	if results[1].Cached {
		t.Error("fresh point wrongly restored from checkpoint")
	}
	if results[1].Err != nil {
		t.Fatal(results[1].Err)
	}
	if resumed.Len() != 2 {
		t.Errorf("checkpoint holds %d points after full sweep, want 2", resumed.Len())
	}

	// A knob change yields a different key, so nothing stale matches.
	changed, err := (&Spec{
		Models:     []string{"tinycnn"},
		Strategies: []string{"generic", "dp"},
		FlitBytes:  []int{16},
	}).Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range changed {
		if _, ok := resumed.Lookup(p.Key()); ok {
			t.Errorf("stale checkpoint entry matched changed point %s", p.Label())
		}
	}
}

// TestCheckpointResumeReorderedAxes pins the fingerprint-keyed resume
// contract: a spec whose axis values were reordered (or whose JSON fields
// moved, or whose base values became explicit) expands to points with
// different indices but identical keys, so every completed point restores
// from the checkpoint — no axis-position dependence anywhere in the key.
func TestCheckpointResumeReorderedAxes(t *testing.T) {
	base := arch.DefaultConfig()
	original := &Spec{
		Models:     []string{"tinycnn", "tinymlp"},
		Strategies: []string{"generic"},
		MGSizes:    []int{4, 8},
		FlitBytes:  []int{8, 16},
	}
	points, err := original.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ckpt, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCompileCache()
	first, err := Run(context.Background(), points, RunOptions{Cache: cache, Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}

	// Same set of points, every axis reversed, models swapped: a different
	// enumeration order of the identical space.
	reordered := &Spec{
		Models:     []string{"tinymlp", "tinycnn"},
		Strategies: []string{"generic"},
		MGSizes:    []int{8, 4},
		FlitBytes:  []int{16, 8},
	}
	repoints, err := reordered.Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(context.Background(), repoints, RunOptions{Cache: cache, Checkpoint: resumed})
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]PointResult{}
	for _, r := range first {
		byKey[r.Point.Key()] = r
	}
	for i, r := range results {
		if !r.Cached {
			t.Errorf("reordered point %d (%s) was re-simulated instead of restored", i, r.Point.Label())
		}
		if want, ok := byKey[r.Point.Key()]; !ok {
			t.Errorf("reordered point %s has no original counterpart", r.Point.Label())
		} else {
			if r.Metrics != want.Metrics {
				t.Errorf("reordered point %s restored %+v, want %+v", r.Point.Label(), r.Metrics, want.Metrics)
			}
			if r.CostEst != want.CostEst {
				t.Errorf("reordered point %s restored cost_est %v, want %v", r.Point.Label(), r.CostEst, want.CostEst)
			}
		}
	}

	// Making the implicit base flit explicit must also hit the checkpoint:
	// the key fingerprints the derived configuration, not the knob list.
	ckpt2, err := LoadCheckpoint(filepath.Join(t.TempDir(), "ckpt2.json"))
	if err != nil {
		t.Fatal(err)
	}
	implicit, err := (&Spec{Models: []string{"tinycnn"}, Strategies: []string{"generic"}}).Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), implicit, RunOptions{Cache: cache, Checkpoint: ckpt2}); err != nil {
		t.Fatal(err)
	}
	explicit, err := (&Spec{
		Models: []string{"tinycnn"}, Strategies: []string{"generic"},
		FlitBytes: []int{base.Chip.NoCFlitBytes},
	}).Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	eres, err := Run(context.Background(), explicit, RunOptions{Cache: cache, Checkpoint: ckpt2})
	if err != nil {
		t.Fatal(err)
	}
	if !eres[0].Cached {
		t.Error("explicit-base-value point missed the checkpoint entry of its implicit twin")
	}
}

// TestCheckpointMissingFile: loading a nonexistent path yields an empty,
// usable checkpoint.
func TestCheckpointMissingFile(t *testing.T) {
	c, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope", "ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 0 {
		t.Errorf("fresh checkpoint holds %d entries", c.Len())
	}
	if err := c.Save(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRecordsErrors: failed points persist their error message
// and are restored as failures, not silently retried as successes; an
// infeasible point is restored as infeasible, with the same message.
func TestCheckpointRecordsErrors(t *testing.T) {
	base := arch.DefaultConfig()
	points, err := (&Spec{Models: []string{"tinycnn", "resnet18"}, Strategies: []string{"generic"},
		MGSizes: []int{2}, CoreMeshes: [][2]int{{2, 2}}}).Expand(base)
	if err != nil {
		t.Fatal(err)
	}
	points[0].Model = "vanished" // force a runtime failure
	path := filepath.Join(t.TempDir(), "ckpt.json")
	ckpt, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(context.Background(), points, RunOptions{Checkpoint: ckpt})
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(context.Background(), points, RunOptions{Checkpoint: reloaded})
	if err != nil {
		t.Fatal(err)
	}
	var inf *compiler.ErrInfeasible
	for i, r := range results {
		if !r.Cached || r.Err == nil || r.Err.Error() != first[i].Err.Error() {
			t.Errorf("%s not restored as cached failure: cached=%v err=%v", r.Point.Label(), r.Cached, r.Err)
		}
		if errors.As(r.Err, &inf) != (i == 1) {
			t.Errorf("%s: want infeasible %v, restored %v", r.Point.Label(), i == 1, r.Err)
		}
	}
}
