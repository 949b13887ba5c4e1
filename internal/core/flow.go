// Package core is the integrated CIMFlow workflow: it runs compiled
// programs on the cycle-accurate simulator through the
// compile-once/infer-many Session that the public Engine API is built on
// (Simulate is one run on a fresh chip), validates a session's outputs
// against the golden tensor library, and underpins the experiment sweeps
// that regenerate the paper's figures.
package core

import (
	"context"

	"cimflow/internal/compiler"
	"cimflow/internal/model"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// Result is one complete compile-and-simulate run.
type Result struct {
	Compiled *compiler.Compiled
	Stats    *sim.Stats
	Output   tensor.Tensor
	// Derived headline metrics at the configured clock.
	Seconds    float64
	TOPS       float64
	EnergyMJ   float64
	Throughput float64 // inferences per second
}

// newResult assembles the derived metrics of a completed simulation.
func newResult(compiled *compiler.Compiled, stats *sim.Stats, out tensor.Tensor, clockGHz float64) *Result {
	res := &Result{
		Compiled: compiled,
		Stats:    stats,
		Output:   out,
		Seconds:  stats.Seconds(clockGHz),
		TOPS:     stats.TOPS(clockGHz),
		EnergyMJ: stats.EnergyMJ(),
	}
	if res.Seconds > 0 {
		res.Throughput = 1 / res.Seconds
	}
	return res
}

// Options configures a run.
type Options struct {
	// CycleLimit overrides the simulator's runaway guard (0 = default).
	CycleLimit int64
	// MaxPooledChips bounds the live chips of the private Pool NewSession
	// builds (0 = GOMAXPROCS); a session built on a shared Pool ignores it.
	MaxPooledChips int
	// SimWorkers is ignored: the simulator has one scheduler, the serial
	// loop.
	//
	// Deprecated: kept only because the frozen bench/layers.go sets it; it
	// goes with that line in the next benchmark PR.
	SimWorkers int
	// SimLanes sets the session's lane-batch capacity (sim.WithLanes, at
	// most sim.MaxLanes): InferBatch fills up to SimLanes inputs into one
	// lane-batched chip run, paying the cycle-accurate schedule once per
	// batch. Per-lane results are bit-identical to per-input runs — lanes
	// whose data would change control flow diverge and re-run alone. 0 or
	// 1 means one lane.
	SimLanes int
}

// Simulate executes an already-compiled model with the given weights and
// input tensor on a fresh chip. Callers running the same compiled model
// repeatedly should hold a Session instead, which stages weights once and
// pools chips across runs; callers running many programs, of one
// architecture or several, should build their sessions on one Pool, which
// restages its chips from program to program.
func Simulate(ctx context.Context, compiled *compiler.Compiled, ws model.WeightStore, input tensor.Tensor, opt Options) (*Result, error) {
	s, err := NewSession(compiled, ws, opt)
	if err != nil {
		return nil, err
	}
	return s.Infer(ctx, input)
}
