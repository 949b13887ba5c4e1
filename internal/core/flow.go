// Package core is the integrated CIMFlow workflow: it couples the compiler
// and the cycle-accurate simulator behind one entry point, provides the
// compile-once/infer-many Session that the public Engine API is built on,
// runs functional validation against the golden tensor library, and
// underpins the experiment sweeps that regenerate the paper's figures.
package core

import (
	"context"
	"fmt"

	"cimflow/internal/arch"
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
	Strategy compiler.Strategy
	Seed     uint64
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

// session compiles the model for the architecture (one pass of the staged
// compiler pipeline: frontend, planning, parallel per-core codegen) and
// stages it with deterministic synthetic weights; it also returns the
// matching synthetic input.
func session(g *model.Graph, cfg arch.Config, opt Options) (*Session, tensor.Tensor, error) {
	compiled, err := compiler.Compile(g, &cfg, compiler.Options{Strategy: opt.Strategy})
	if err != nil {
		return nil, tensor.Tensor{}, fmt.Errorf("core: compile %s: %w", g.Name, err)
	}
	s, err := NewSession(compiled, model.NewSeededWeights(g, opt.Seed), opt)
	return s, model.SeededInput(g.Nodes[0].OutShape, opt.Seed+1), err
}

// Run compiles the model and executes it on the simulator with
// deterministic synthetic weights and input. Cancelling ctx aborts the
// simulation mid-run. Callers that compile the same graph repeatedly should
// go through an Engine or a dse.CompileCache, which reuse the graph's
// CompileContext and artifacts.
func Run(ctx context.Context, g *model.Graph, cfg arch.Config, opt Options) (*Result, error) {
	s, input, err := session(g, cfg, opt)
	if err != nil {
		return nil, err
	}
	return s.Infer(ctx, input)
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

// Validate runs the model end to end and compares the simulated output with
// the golden reference executor (Session.Validate); it returns the number
// of mismatching elements (0 = exact functional match).
func Validate(ctx context.Context, g *model.Graph, cfg arch.Config, opt Options) (int, error) {
	s, input, err := session(g, cfg, opt)
	if err != nil {
		return -1, err
	}
	return s.Validate(ctx, input)
}
