package compiler

import (
	"sync"

	"cimflow/internal/arch"
	"cimflow/internal/model"
)

// costModel estimates execution cycles of operators and stages. It guides
// the CG-level decisions (partitioning and duplication); ground truth comes
// from the simulator. The model accounts for CIM issue bandwidth, vector
// unit throughput, per-row staging/transfer traffic and the shared global
// memory port that serializes weight loading — the dominant terms of the
// architectures under study.
//
// A costModel is the planning-stage cache of the staged pipeline: built
// once per (graph, architecture), it precomputes flat per-unit tables
// (per-row cost, minimum cores, boundary-edge traffic, MVM geometries) so
// that the dynamic program's inner loop — millions of unitCost calls for a
// MobileNet-class graph — reads table entries instead of re-deriving tile
// geometries, and memoizes whole stage allocations by their unit bitmask.
// Safe for concurrent use once constructed; only the stage memo mutates.
type costModel struct {
	g     *model.Graph
	cfg   *arch.Config
	units []*unit

	// geoms maps conv/dense node ids to their CIM mapping geometry; it is
	// read-only after construction and shared with the codegen stage.
	geoms map[int]mvmGeom
	// Flat per-unit tables, indexed by unit id. minCores, passes and unfit
	// are place's answer for one replica.
	perRow   []float64 // replica-independent per-output-row cost
	minCores []int
	passes   []int
	unfit    []error // *ErrInfeasible, or nil when the unit fits
	maxReps  []int
	bedges   [][]bedge // input edges, in graph-walk order

	mu        sync.Mutex
	stageMemo map[stageMemoKey]*stageAlloc
}

// bedge is one input edge of a unit for boundary costing: the producing
// unit (-1 = the graph input) and the tensor bytes fetched when the
// producer is outside the stage.
type bedge struct {
	prod  int
	bytes float64
}

// stageMemoKey identifies a memoized stage allocation: the unit set and
// whether duplication was allowed.
type stageMemoKey struct {
	mask      bmask
	duplicate bool
}

// maxStageMemo bounds the stage-allocation memo. Real graphs stay far
// below it (efficientnetb0 across all three strategies reaches ~3.5k
// entries); the cap keeps a pathological 128-unit DAG from pinning
// unbounded memory in a long-lived engine — once full, further stage
// mappings compute uncached, which is correct, merely slower.
const maxStageMemo = 1 << 16

// newCostModel builds the planning tables for one (graph, architecture)
// pair. units must be the full condensation of g (table indices are unit
// ids).
func newCostModel(g *model.Graph, cfg *arch.Config, units []*unit) *costModel {
	cm := &costModel{
		g:         g,
		cfg:       cfg,
		units:     units,
		geoms:     make(map[int]mvmGeom, len(units)),
		perRow:    make([]float64, len(units)),
		minCores:  make([]int, len(units)),
		passes:    make([]int, len(units)),
		unfit:     make([]error, len(units)),
		maxReps:   make([]int, len(units)),
		bedges:    make([][]bedge, len(units)),
		stageMemo: map[stageMemoKey]*stageAlloc{},
	}
	for _, u := range units {
		if u.anchor.Op == model.OpConv || u.anchor.Op == model.OpDense {
			cm.geoms[u.anchor.ID] = geometry(g, cfg, u.anchor)
		}
	}
	// unitOf resolves a node id to its unit for boundary edges.
	unitOf := make([]int, len(g.Nodes))
	for i := range unitOf {
		unitOf[i] = -1
	}
	for _, u := range units {
		for _, n := range u.nodes {
			unitOf[n.ID] = u.id
		}
	}
	for _, u := range units {
		cm.minCores[u.id], cm.passes[u.id], cm.unfit[u.id] = cm.place(u)
		cm.perRow[u.id] = cm.unitPerRow(u)
		cm.maxReps[u.id] = u.anchor.OutShape.H
		for _, n := range u.nodes {
			for _, inID := range n.Inputs {
				src := g.Nodes[inID]
				for src.Op == model.OpFlatten {
					src = g.Nodes[src.Inputs[0]]
				}
				cm.bedges[u.id] = append(cm.bedges[u.id], bedge{
					prod:  unitOf[src.ID],
					bytes: float64(src.OutShape.Elems()),
				})
			}
		}
	}
	return cm
}

// mvmIssueCycles is the initiation interval of one MVM, including input
// streaming from local memory.
func (cm *costModel) mvmIssueCycles(tileRows int) float64 {
	ii := cm.cfg.MVMInterval()
	stream := (tileRows + cm.cfg.Core.LocalMemBandwidth - 1) / cm.cfg.Core.LocalMemBandwidth
	if stream > ii {
		ii = stream
	}
	return float64(ii)
}

// vecCycles estimates vector-unit cycles to process n lane-elements.
func (cm *costModel) vecCycles(n int) float64 {
	return float64(n) / float64(cm.cfg.Core.VectorLanes)
}

// auxCyclesPerOutRow estimates the per-output-row vector and transfer load
// of an auxiliary (non-MVM) operator.
func (cm *costModel) auxCyclesPerOutRow(n *model.Node) float64 {
	in := cm.g.InShape(n)
	out := n.OutShape
	switch n.Op {
	case model.OpDWConv:
		return cm.vecCycles(n.KH * n.KW * out.W * out.C)
	case model.OpMaxPool, model.OpAvgPool:
		return cm.vecCycles(n.KH * n.KW * out.W * out.C)
	case model.OpReLU, model.OpReLU6, model.OpSigmoid, model.OpSiLU:
		return cm.vecCycles(out.W * out.C)
	case model.OpAdd, model.OpMul:
		return cm.vecCycles(2 * out.W * out.C)
	case model.OpGlobalAvgPool:
		return cm.vecCycles(in.W * in.C)
	}
	return 0
}

// unitPerRow computes the replica-independent per-output-row makespan of a
// unit: the maximum of CIM issue time, vector work and transfer traffic.
// This is the expensive half of unitCost, tabulated once per unit.
func (cm *costModel) unitPerRow(u *unit) float64 {
	anchor := u.anchor
	out := anchor.OutShape
	in := cm.g.InShape(anchor)
	bw := float64(cm.cfg.Core.LocalMemBandwidth)

	var cimPerRow, vecPerRow, xferPerRow float64
	switch anchor.Op {
	case model.OpConv, model.OpDense:
		gm := cm.geom(anchor)
		cores, passes := cm.minCores[u.id], cm.passes[u.id]
		// Shards split channel tiles; the busiest core issues per pixel one
		// MVM per (row tile x its channel tiles), once per swap pass.
		ctOnCore := (gm.chanTiles + cores - 1) / cores
		var perPixel float64
		for _, t := range gm.tiles {
			perPixel += cm.mvmIssueCycles(t.Rows) * float64(ctOnCore)
		}
		perPixel *= float64(passes)
		cimPerRow = perPixel * float64(out.W)
		// Input staging: k rows of kw*cin copied per output row.
		xferPerRow = float64(anchor.KH*gm.segBytes) / bw
		if anchor.Op == model.OpDense {
			// Gathering the whole input once; reloading weights per pass
			// through the shared global port.
			xferPerRow = float64(gm.rows) / bw
			reload := float64(passes-1) * float64(cm.cfg.CoreWeightBytes()) /
				float64(cm.cfg.Chip.GlobalMemBandwidth)
			xferPerRow += reload
		}
		// Receiving the input rows from producers.
		xferPerRow += float64(in.W*in.C) / bw
	case model.OpDWConv:
		vecPerRow = cm.auxCyclesPerOutRow(anchor)
		xferPerRow = float64(in.W*in.C) / bw
	}
	// Auxiliary operators grouped on the same cores share the vector unit.
	for _, n := range u.nodes[1:] {
		vecPerRow += cm.auxCyclesPerOutRow(n)
	}
	perRow := cimPerRow
	if vecPerRow > perRow {
		perRow = vecPerRow
	}
	if xferPerRow > perRow {
		perRow = xferPerRow
	}
	return perRow
}

// geom returns the memoized MVM geometry of a node. The geometry map is
// read-only after construction (it is shared with concurrent codegen
// workers), so an uncached node — impossible for planned anchors — is
// recomputed rather than stored.
func (cm *costModel) geom(n *model.Node) mvmGeom {
	if gm, ok := cm.geoms[n.ID]; ok {
		return gm
	}
	return geometry(cm.g, cm.cfg, n)
}

// unitCost estimates one condensed unit's makespan on its cluster, given a
// replica count: the tabulated per-row cost times the rows each replica
// owns (weight-swap reload time is part of the per-row table).
func (cm *costModel) unitCost(u *unit, replicas int) float64 {
	rows := (u.anchor.OutShape.H + replicas - 1) / replicas
	return float64(rows) * cm.perRow[u.id]
}

// place decides one replica of a unit: the cores it spans, its weight-swap
// passes, and whether it fits at all. An MVM anchor takes the fewest cores
// that hold it (mvmGeom.minCores), or the whole chip when that is more than
// the chip has, and mvmGeom.fit judges the shard that leaves each core.
// Depthwise and auxiliary anchors run on one core.
func (cm *costModel) place(u *unit) (cores, passes int, err error) {
	switch u.anchor.Op {
	case model.OpConv, model.OpDense:
		gm := cm.geom(u.anchor)
		cores = min(gm.minCores, cm.cfg.NumCores())
		passes, err = gm.fit(cores, cm.cfg.Core.NumMacroGroups)
		return cores, passes, err
	}
	return 1, 1, nil
}

// unitMinCores returns the cores one replica of the unit spans.
func (cm *costModel) unitMinCores(u *unit) int { return cm.minCores[u.id] }

// unitMaxReplicas bounds duplication by the output rows available to split.
func (cm *costModel) unitMaxReplicas(u *unit) int { return cm.maxReps[u.id] }

// weightLoadCycles estimates the stage's weight-loading time through the
// shared global memory port (the chip-level serialization bottleneck).
func (cm *costModel) weightLoadCycles(units []*unit, replicas []int) float64 {
	var bytes float64
	for i, u := range units {
		bytes += float64(u.weightBytes) * float64(replicas[i])
	}
	return bytes / float64(cm.cfg.Chip.GlobalMemBandwidth)
}

// boundaryCycles estimates stage-boundary activation traffic: tensors
// produced outside the stage (or the graph input) must be fetched from
// global memory by every consuming unit. The per-unit edge lists are
// tabulated at construction; only the membership test runs here.
func (cm *costModel) boundaryCycles(units []*unit, inStage bmask) float64 {
	var bytes float64
	for _, u := range units {
		for _, be := range cm.bedges[u.id] {
			if be.prod < 0 || !inStage.has(be.prod) {
				bytes += be.bytes
			}
		}
	}
	return 2 * bytes / float64(cm.cfg.Chip.GlobalMemBandwidth)
}

// stageCost returns the memoized mapping of a unit set as one stage, or
// (nil, false) when the set cannot fit the chip. The memo is keyed by the
// stage bitmask and persists across strategies and Partition calls on the
// same planner — the same set difference appears many times in Alg. 1's
// transition loop and again in the greedy baselines.
func (cm *costModel) stageCost(stage bmask, duplicate bool) (*stageAlloc, bool) {
	key := stageMemoKey{mask: stage, duplicate: duplicate}
	cm.mu.Lock()
	a, ok := cm.stageMemo[key]
	cm.mu.Unlock()
	if ok {
		return a, a != nil
	}
	ids := stage.members()
	us := make([]*unit, len(ids))
	for i, id := range ids {
		us[i] = cm.units[id]
	}
	alloc, feasible := cm.mapStage(us, cm.cfg.NumCores(), stage, duplicate)
	var p *stageAlloc
	if feasible {
		cp := alloc
		p = &cp
	}
	cm.mu.Lock()
	if len(cm.stageMemo) < maxStageMemo {
		cm.stageMemo[key] = p
	}
	cm.mu.Unlock()
	return p, feasible
}
