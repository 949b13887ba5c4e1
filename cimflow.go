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
	// CompileContext is a graph's reusable compiler frontend: condensation
	// and linearization run once, then Compile lowers the graph for any
	// architecture and strategy with memoized planning. Engines and sweeps
	// manage contexts automatically (keyed on the graph fingerprint);
	// NewCompileContext is for callers driving the compiler directly.
	CompileContext = compiler.CompileContext
	// CompileOptions configures a direct CompileContext.Compile call.
	CompileOptions = compiler.Options
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
// CIMFlow ISA programs and the partitioning/mapping plan. One-shot; to
// compile the same model repeatedly (several strategies or architecture
// points), build a CompileContext once and call its Compile.
func Compile(g *Graph, cfg Config, strategy Strategy) (*Compiled, error) {
	return compiler.Compile(g, &cfg, compiler.Options{Strategy: strategy})
}

// NewCompileContext runs the compiler frontend (validation, condensation,
// linearization) once for a graph and returns the reusable context the
// staged pipeline compiles from. The context is safe for concurrent use
// and memoizes planning per architecture; artifacts are byte-identical to
// one-shot Compile calls.
func NewCompileContext(g *Graph) (*CompileContext, error) {
	return compiler.NewContext(g)
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

// ConfigFingerprint returns the stable hardware identity hash used by the
// compile cache and sweep checkpoints.
func ConfigFingerprint(cfg *Config) string { return dse.Fingerprint(cfg) }

// Experiment runners regenerating the paper's evaluation (Sec. IV), built
// on the DSE engine: parallel underneath, rows identical to the historical
// serial implementation.
var (
	// Fig5Models / Fig6MGSizes / Fig6Flits are the paper's sweep axes.
	Fig5Models  = dse.Fig5Models
	Fig6MGSizes = dse.Fig6MGSizes
	Fig6Flits   = dse.Fig6Flits
)

// RunFig5 regenerates Fig. 5 (compilation strategies comparison).
func RunFig5(cfg Config, models []string) ([]dse.Fig5Row, error) {
	return dse.RunFig5(context.Background(), cfg, models, dse.RunOptions{})
}

// RunFig6 regenerates Fig. 6 (MG size x flit width exploration).
func RunFig6(cfg Config, models []string) ([]dse.Fig6Row, error) {
	return dse.RunFig6(context.Background(), cfg, models, dse.RunOptions{})
}

// RunFig7 regenerates Fig. 7 (SW/HW co-design space).
func RunFig7(cfg Config, models []string) ([]dse.Fig7Row, error) {
	return dse.RunFig7(context.Background(), cfg, models, dse.RunOptions{})
}

// RunFig5With / RunFig6With / RunFig7With expose the sweep engine's
// parallelism, cache sharing, checkpointing and cancellation to figure
// regeneration (cimflow-bench -j); cancelling ctx aborts mid-simulation.
func RunFig5With(ctx context.Context, cfg Config, models []string, opt SweepOptions) ([]dse.Fig5Row, error) {
	return dse.RunFig5(ctx, cfg, models, opt)
}

// RunFig6With regenerates Fig. 6 with explicit sweep options.
func RunFig6With(ctx context.Context, cfg Config, models []string, opt SweepOptions) ([]dse.Fig6Row, error) {
	return dse.RunFig6(ctx, cfg, models, opt)
}

// RunFig7With regenerates Fig. 7 with explicit sweep options.
func RunFig7With(ctx context.Context, cfg Config, models []string, opt SweepOptions) ([]dse.Fig7Row, error) {
	return dse.RunFig7(ctx, cfg, models, opt)
}

// Fig5Table / Fig6Table / Fig7Table render experiment rows as tables.
func Fig5Table(rows []dse.Fig5Row) *Table { return dse.Fig5Table(rows) }

// Fig6Table renders Fig. 6 rows.
func Fig6Table(rows []dse.Fig6Row) *Table { return dse.Fig6Table(rows) }

// Fig7Table renders Fig. 7 rows.
func Fig7Table(rows []dse.Fig7Row) *Table { return dse.Fig7Table(rows) }
