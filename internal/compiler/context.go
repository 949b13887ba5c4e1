package compiler

import (
	"runtime"
	"sync"

	"cimflow/internal/arch"
	"cimflow/internal/model"
)

// CompileContext is the reusable frontend artifact of one graph and the
// anchor of the staged compilation pipeline:
//
//  1. frontend — validation, condensation into units and linearization,
//     computed once per graph in NewContext and shared across strategies and
//     architecture points;
//  2. planning — the CG-level partitioning and mapping (Partition), whose
//     per-architecture cost tables and stage allocations are memoized in a
//     planner cached inside the context;
//  3. codegen — OP-level lowering to per-core instruction streams, emitted
//     by independent per-core workers and merged deterministically
//     (Compile).
//
// A CompileContext is safe for concurrent use: DSE sweep workers share one
// context per graph across all sweep points, and an Engine shares one per
// model across strategies.
type CompileContext struct {
	g     *model.Graph
	units []*unit

	mu       sync.Mutex
	closures *closureSet // nil until the DP first asks
	planners map[plannerKey]*costModel
	order    []plannerKey // planner insertion order for bounded eviction
}

// plannerKey identifies a planning cache: every architectural parameter
// (the cosmetic Name is cleared so renamed copies of one architecture share
// a planner).
type plannerKey struct{ cfg arch.Config }

// maxPlanners bounds how many per-architecture planners one context
// retains. Sweeps visit hundreds of architecture points; each point's
// artifact is cached one level up (dse.CompileCache), so evicted planners
// only cost recomputation when an old architecture is revisited under
// another strategy.
const maxPlanners = 4

// NewContext runs the frontend stage: graph validation and condensation
// into units. The returned context compiles the graph for any architecture
// and strategy without repeating that work.
func NewContext(g *model.Graph) (*CompileContext, error) {
	units, err := condense(g)
	if err != nil {
		return nil, err
	}
	return &CompileContext{
		g:        g,
		units:    units,
		planners: map[plannerKey]*costModel{},
	}, nil
}

// Graph returns the graph the context fronts.
func (cx *CompileContext) Graph() *model.Graph { return cx.g }

// Units reports how many condensed units the frontend produced.
func (cx *CompileContext) Units() int { return len(cx.units) }

// planner returns the memoized planning state for an architecture,
// building it on first use.
func (cx *CompileContext) planner(cfg *arch.Config) *costModel {
	key := plannerKey{cfg: *cfg}
	key.cfg.Name = ""
	cx.mu.Lock()
	defer cx.mu.Unlock()
	if cm, ok := cx.planners[key]; ok {
		return cm
	}
	cc := key.cfg
	cm := newCostModel(cx.g, &cc, cx.units)
	if len(cx.order) >= maxPlanners {
		delete(cx.planners, cx.order[0])
		cx.order = cx.order[1:]
	}
	cx.planners[key] = cm
	cx.order = append(cx.order, key)
	return cm
}

// closureSet returns the graph's dependency-closure enumeration at the
// fixed defaultMaxClosures cap, enumerating it on first use.
func (cx *CompileContext) closureSet() *closureSet {
	cx.mu.Lock()
	defer cx.mu.Unlock()
	if cx.closures == nil {
		cx.closures = enumerateClosures(cx.units, defaultMaxClosures)
	}
	return cx.closures
}

// codegenWorkers resolves the codegen worker count: the configured value,
// defaulting to GOMAXPROCS, never more than one worker per core.
func codegenWorkers(opt Options, numCores int) int {
	w := opt.CodegenWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > numCores {
		w = numCores
	}
	return w
}
