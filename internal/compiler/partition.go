package compiler

import (
	"fmt"
	"sort"

	"cimflow/internal/arch"
	"cimflow/internal/model"
)

// defaultMaxClosures caps dependency-closure enumeration.
const defaultMaxClosures = 4096

// Partition runs the CG-level optimization: condensation, linearization,
// stage partitioning and core mapping under the selected strategy, and
// returns the plan the code generator realizes. One-shot convenience over
// the staged pipeline; callers compiling a graph more than once should hold
// a CompileContext and call its Partition.
func Partition(g *model.Graph, cfg *arch.Config, opt Options) (*Plan, error) {
	cx, err := NewContext(g)
	if err != nil {
		return nil, err
	}
	return cx.Partition(cfg, opt)
}

// Partition is the planning stage: it partitions the context's graph into
// execution stages and maps them onto the architecture's cores under the
// selected strategy, reusing the context's memoized cost tables.
func (cx *CompileContext) Partition(cfg *arch.Config, opt Options) (*Plan, error) {
	return cx.partitionWith(cx.planner(cfg), opt)
}

// partitionWith is Partition against an already-resolved planner, so
// Compile resolves the planner exactly once per call (a re-lookup could
// rebuild the cost tables if the bounded planner cache evicted it
// in between).
//
// A unit that fits no core count on the chip fails the whole point with its
// *ErrInfeasible before any stage is costed; every other unit fits alone, so
// each strategy then finds a partition.
func (cx *CompileContext) partitionWith(cm *costModel, opt Options) (*Plan, error) {
	for _, err := range cm.unfit {
		if err != nil {
			return nil, err
		}
	}
	plan := &Plan{Strategy: opt.Strategy}
	var (
		stages [][]int // unit ids per stage
		allocs []stageAlloc
		err    error
	)
	switch opt.Strategy {
	case StrategyGeneric, StrategyDuplication:
		stages, allocs, err = greedyPartition(cm, cx.units, opt.Strategy == StrategyDuplication)
	case StrategyDP:
		cs := cx.closureSet(opt.MaxClosures)
		plan.ClosureCapHit = cs.capHit
		plan.ClosuresEnumerated = cs.enumerated
		stages, allocs, err = dpPartition(cm, cx.units, cs)
	default:
		return nil, fmt.Errorf("compiler: unknown strategy %v", opt.Strategy)
	}
	if err != nil {
		return nil, err
	}

	for si := range stages {
		st, err := cm.buildStage(si, allocs[si])
		if err != nil {
			return nil, err
		}
		plan.Stages = append(plan.Stages, st)
		plan.EstimatedCycles += allocs[si].cycles
	}
	plan.buildIndex()
	markGlobalOutputs(cx.g, plan)
	return plan, nil
}

// greedyPartition walks the dependency-preserving linear order and fills
// stages until the core budget is exhausted — the conventional partition of
// the two baselines. With duplicate=true, vacant cores are then filled with
// opportunistic weight duplication (the CIM-MLC-style baseline).
func greedyPartition(cm *costModel, units []*unit, duplicate bool) ([][]int, []stageAlloc, error) {
	maskOf := func(ids []int) bmask {
		m := bmask{}
		for _, id := range ids {
			m = m.or(bit(id))
		}
		return m
	}
	var stages [][]int
	var cur []int
	for _, u := range units {
		trial := append(append([]int{}, cur...), u.id)
		if _, ok := cm.stageCost(maskOf(trial), false); !ok && len(cur) > 0 {
			stages = append(stages, cur)
			cur = nil
		}
		cur = append(cur, u.id)
	}
	if len(cur) > 0 {
		stages = append(stages, cur)
	}
	allocs := make([]stageAlloc, len(stages))
	for si, st := range stages {
		alloc, ok := cm.stageCost(maskOf(st), duplicate)
		if !ok {
			return nil, nil, fmt.Errorf("compiler: internal: greedy stage %d (units %v) does not map", si, st)
		}
		allocs[si] = *alloc
	}
	return stages, allocs, nil
}

// closureSet is the result of dependency-closure enumeration: the closure
// bitmasks, whether the cap forced the linear-prefix fallback, and how many
// distinct closures the enumeration visited before stopping.
type closureSet struct {
	masks      []bmask
	capHit     bool
	enumerated int
}

// enumerateClosures lists dependency closures (downsets) of the unit DAG as
// bitmasks, the state-compression of Alg. 1. Enumeration is breadth-first
// over closure extensions; if the count exceeds the cap, it falls back to
// the linear-prefix closures, which are always valid (and reports the cap
// hit so plans can surface the fallback instead of silently degrading).
func enumerateClosures(units []*unit, maxClosures int) *closureSet {
	if maxClosures <= 0 {
		maxClosures = defaultMaxClosures
	}
	seen := map[bmask]bool{{}: true}
	queue := []bmask{{}}
	for qi := 0; qi < len(queue) && len(seen) <= maxClosures; qi++ {
		s := queue[qi]
		for _, u := range units {
			if s.has(u.id) {
				continue
			}
			ok := true
			for _, d := range u.deps {
				if !s.has(d) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			next := s.or(bit(u.id))
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		}
	}
	if len(seen) > maxClosures {
		// Fallback: prefixes of the linear order.
		out := make([]bmask, 0, len(units)+1)
		m := bmask{}
		out = append(out, m)
		for _, u := range units {
			m = m.or(bit(u.id))
			out = append(out, m)
		}
		return &closureSet{masks: out, capHit: true, enumerated: len(seen)}
	}
	out := make([]bmask, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].count() != out[j].count() {
			return out[i].count() < out[j].count()
		}
		if out[i].hi != out[j].hi {
			return out[i].hi < out[j].hi
		}
		return out[i].lo < out[j].lo
	})
	return &closureSet{masks: out, enumerated: len(seen)}
}

// dpPartition implements Alg. 1: dp[i] is the optimal cost of executing
// closure D[i]; transitions carve a stage D[i] \ D[j] out of every subset
// closure D[j], costed by OptimalMapping (mapStage with duplication).
// Stage costs are served by the planner's bitmask-keyed memo, so the same
// set difference — which reappears across transitions, strategies and
// repeated Partition calls — is mapped once.
func dpPartition(cm *costModel, units []*unit, cs *closureSet) ([][]int, []stageAlloc, error) {
	closures := cs.masks
	n := len(closures)
	const inf = 1e30
	dp := make([]float64, n)
	prev := make([]int, n)
	stageAllocs := make([]*stageAlloc, n)
	idx := make(map[bmask]int, n)
	for i, m := range closures {
		idx[m] = i
		dp[i] = inf
		prev[i] = -1
	}
	dp[idx[bmask{}]] = 0

	for i := 1; i < n; i++ {
		di := closures[i]
		for j := 0; j < i; j++ {
			if dp[j] >= inf {
				continue
			}
			dj := closures[j]
			if !di.contains(dj) || di == dj {
				continue
			}
			alloc, ok := cm.stageCost(di.diff(dj), true)
			if !ok {
				continue
			}
			if cand := dp[j] + alloc.cycles; cand < dp[i] {
				dp[i] = cand
				prev[i] = j
				stageAllocs[i] = alloc
			}
		}
	}
	// The full set is the closure containing every unit.
	all := bmask{}
	for _, u := range units {
		all = all.or(bit(u.id))
	}
	full, ok := idx[all]
	if !ok {
		return nil, nil, fmt.Errorf("compiler: closure enumeration missed the full set")
	}
	if dp[full] >= inf {
		return nil, nil, fmt.Errorf("compiler: internal: no partition of units that each fit alone")
	}

	// Reconstruct stages back-to-front.
	var revStages [][]int
	var revAllocs []stageAlloc
	for i := full; prev[i] >= 0; i = prev[i] {
		stage := closures[i].diff(closures[prev[i]])
		revStages = append(revStages, stage.members())
		revAllocs = append(revAllocs, *stageAllocs[i])
	}
	stages := make([][]int, 0, len(revStages))
	allocs := make([]stageAlloc, 0, len(revAllocs))
	for i := len(revStages) - 1; i >= 0; i-- {
		stages = append(stages, revStages[i])
		allocs = append(allocs, revAllocs[i])
	}
	return stages, allocs, nil
}

// markGlobalOutputs flags nodes whose results must be materialized in
// global memory: cross-stage consumers and the network output. The actual
// addresses are assigned by the code generator's layout pass.
func markGlobalOutputs(g *model.Graph, plan *Plan) {
	resolve := func(id int) int {
		for g.Nodes[id].Op == model.OpFlatten {
			id = g.Nodes[id].Inputs[0]
		}
		return id
	}
	for _, n := range g.Nodes {
		for _, inID := range n.Inputs {
			src := resolve(inID)
			if src == 0 {
				continue
			}
			ps, cs := plan.stageOf(src), plan.stageOf(n.ID)
			if cs < 0 {
				// Flatten nodes are not planned; their consumers were
				// handled through resolve.
				continue
			}
			if ps >= 0 && ps != cs {
				if op := plan.opPlanByNode(src); op != nil && op.GlobalOut == -1 {
					op.GlobalOut = -2 // needs assignment
				}
			}
		}
	}
	out := resolve(g.Output())
	if op := plan.opPlanByNode(out); op != nil {
		op.GlobalOut = -2
	}
}
