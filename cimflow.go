// Package cimflow is the public facade of the CIMFlow framework: an
// integrated compiler + cycle-accurate simulator for systematic design and
// evaluation of digital compute-in-memory (CIM) DNN accelerators,
// reproducing Qi et al., "CIMFlow: An Integrated Framework for Systematic
// Design and Evaluation of Digital CIM Architectures" (DAC 2025).
//
// The typical workflow mirrors the paper's Fig. 2, split — like the paper's
// toolchain — into a compile phase and a cycle-accurate execution phase:
//
//	g, err := cimflow.LookupModel("resnet18")  // DNN workload description
//	cfg := cimflow.DefaultConfig()             // Table I architecture
//	engine, err := cimflow.NewEngine(cfg)      // reusable entry point
//	sess, err := engine.Session(g,             // compiles exactly once
//	    cimflow.WithStrategy(cimflow.StrategyDP))
//	res, err := sess.Infer(ctx, input)         // infer-many: pooled chips,
//	fmt.Println(res.Stats)                     // cancellable mid-simulation
//
// Architecture configurations are fully parameterized (chip, core and unit
// levels per the hierarchical hardware abstraction), models can be built
// programmatically or loaded from JSON, compiled programs can be inspected
// as CIMFlow ISA assembly, and the experiment runners regenerate the
// paper's evaluation figures.
//
// Above the Engine sit two multiplexing layers: the DSE sweep engine
// (SweepSpec/Sweep/ParetoFront) for design-space exploration, and Server
// (NewServer/ServeModel/Infer) for multi-model inference serving with
// dynamic batching, deadline-aware admission control and load shedding.
package cimflow

import (
	"context"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/core"
	"cimflow/internal/dse"
	"cimflow/internal/model"
	"cimflow/internal/report"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Config is a hierarchical architecture description (chip/core/unit).
	Config = arch.Config
	// EnergyParams is the technology energy table.
	EnergyParams = arch.EnergyParams
	// Graph is a DNN computation graph.
	Graph = model.Graph
	// Node is one operator in a computation graph.
	Node = model.Node
	// Shape is a channel-last activation shape.
	Shape = model.Shape
	// Tensor is an INT8 activation tensor.
	Tensor = tensor.Tensor
	// Strategy selects the CG-level compilation strategy.
	Strategy = compiler.Strategy
	// Compiled is a compiled model: per-core programs plus metadata.
	Compiled = compiler.Compiled
	// Plan is the CG-level partitioning and mapping decision.
	Plan = compiler.Plan
	// InfeasibleError is a compilation point the chip cannot hold: the
	// operator, the resource it overflows, what it needs and what the chip
	// has. Compile, Estimate and sweeps return it as a *InfeasibleError.
	InfeasibleError = compiler.ErrInfeasible
	// Result is a completed run: statistics, output tensor, metrics.
	Result = core.Result
	// Stats is the simulator's chip-level report.
	Stats = sim.Stats
	// Table is an aligned text/CSV result table.
	Table = report.Table
)

// Compilation strategies (paper Fig. 5).
const (
	StrategyGeneric     = compiler.StrategyGeneric
	StrategyDuplication = compiler.StrategyDuplication
	StrategyDP          = compiler.StrategyDP
)

// DefaultConfig returns the paper's Table I default architecture.
func DefaultConfig() Config { return arch.DefaultConfig() }

// LoadConfig reads a JSON architecture description.
func LoadConfig(path string) (Config, error) { return arch.Load(path) }

// ModelNames lists the built-in models.
func ModelNames() []string { return model.ZooNames() }

// NewGraph starts a custom model description with the given input shape.
func NewGraph(name string, input Shape) (*Graph, int) { return model.NewGraph(name, input) }

// Compile lowers a model onto an architecture, returning the per-core
// CIMFlow ISA programs and the partitioning/mapping plan. One-shot; an
// Engine or a sweep compiles the same model repeatedly (several strategies
// or architecture points) through one cached frontend.
func Compile(g *Graph, cfg Config, strategy Strategy) (*Compiled, error) {
	return compiler.Compile(g, &cfg, compiler.Options{Strategy: strategy})
}

// --- Design-space exploration (internal/dse) ---

// Re-exported DSE types. A SweepSpec declares axes over models, strategies
// and hardware knobs; Sweep runs its cross-product on a worker pool with
// compile caching; ParetoFront and BestPoint summarize the landscape.
type (
	// SweepSpec is a declarative design-space sweep (JSON-serializable).
	SweepSpec = dse.Spec
	// SweepPoint is one fully-resolved point of an expanded sweep.
	SweepPoint = dse.Point
	// SweepResult is the outcome of one simulated sweep point.
	SweepResult = dse.PointResult
	// SweepMetrics is the serializable metric summary of one point.
	SweepMetrics = dse.Metrics
	// SweepOptions configures parallelism, caching and checkpointing.
	SweepOptions = dse.RunOptions
	// CompileCache deduplicates compilation across sweep points.
	CompileCache = dse.CompileCache
	// SweepCheckpoint persists partial sweeps for resume.
	SweepCheckpoint = dse.Checkpoint
)

// NewCompileCache returns an empty compile cache to share across sweeps.
func NewCompileCache() *CompileCache { return dse.NewCompileCache() }

// Sweep expands a spec against its base configuration and runs every point
// on the DSE worker pool.
func Sweep(ctx context.Context, spec *SweepSpec, opt SweepOptions) ([]SweepResult, error) {
	return dse.Sweep(ctx, spec, opt)
}

// RunSweep executes pre-expanded points (see SweepSpec.Expand).
func RunSweep(ctx context.Context, points []SweepPoint, opt SweepOptions) ([]SweepResult, error) {
	return dse.Run(ctx, points, opt)
}

// ParetoFront returns the energy/throughput Pareto-optimal results.
func ParetoFront(results []SweepResult) []SweepResult { return dse.ParetoFront(results) }

// BestPoint returns the successful result maximizing score; ScoreTOPS,
// ScoreEnergy and ScoreEDP are ready-made objectives.
func BestPoint(results []SweepResult, score func(SweepMetrics) float64) (SweepResult, bool) {
	return dse.Best(results, score)
}

// Ready-made best-point objectives for BestPoint.
var (
	// ScoreTOPS maximizes throughput.
	ScoreTOPS = dse.ScoreTOPS
	// ScoreEnergy minimizes total energy.
	ScoreEnergy = dse.ScoreEnergy
	// ScoreEDP minimizes the energy-delay product.
	ScoreEDP = dse.ScoreEDP
)

// SweepTable renders sweep results with knobs, metrics and Pareto markers.
func SweepTable(title string, results []SweepResult) *Table {
	return dse.ResultTable(title, results)
}

// RunFig5With / RunFig6With / RunFig7With regenerate the paper's evaluation
// (Sec. IV) on the DSE engine, with the sweep's parallelism, cache sharing,
// checkpointing and cancellation (cimflow-dse -fig -j); cancelling ctx aborts
// mid-simulation. RunFig5With is Fig. 5, the compilation strategies.
func RunFig5With(ctx context.Context, cfg Config, models []string, opt SweepOptions) ([]dse.Fig5Row, error) {
	return dse.RunFig5(ctx, cfg, models, opt)
}

// RunFig6With regenerates Fig. 6 (MG size x flit width exploration).
func RunFig6With(ctx context.Context, cfg Config, models []string, opt SweepOptions) ([]dse.Fig6Row, error) {
	return dse.RunFig6(ctx, cfg, models, opt)
}

// RunFig7With regenerates Fig. 7 (SW/HW co-design space).
func RunFig7With(ctx context.Context, cfg Config, models []string, opt SweepOptions) ([]dse.Fig7Row, error) {
	return dse.RunFig7(ctx, cfg, models, opt)
}

// Fig5Table / Fig6Table / Fig7Table render experiment rows as tables.
func Fig5Table(rows []dse.Fig5Row) *Table { return dse.Fig5Table(rows) }

// Fig6Table renders Fig. 6 rows.
func Fig6Table(rows []dse.Fig6Row) *Table { return dse.Fig6Table(rows) }

// Fig7Table renders Fig. 7 rows.
func Fig7Table(rows []dse.Fig7Row) *Table { return dse.Fig7Table(rows) }
