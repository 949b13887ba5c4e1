// Package compiler lowers DNN computation graphs onto digital CIM
// architectures. It implements the paper's two-level flow:
//
// CG level: the graph is condensed around MVM-based operators, linearized
// in dependency-preserving order, partitioned into execution stages under
// the chip's CIM capacity constraint (dynamic programming over dependency
// closures, Alg. 1), and each stage's operators are mapped to core clusters
// with cost-model-guided weight duplication. Two baseline strategies are
// provided for comparison: a generic inter-layer-pipelined mapping without
// duplication, and a CIM-MLC-style partition with opportunistic duplication.
//
// OP level: each operator is lowered through virtual mapping (im2col
// dimension matching onto the 2D CIM array) and physical mapping (row/
// channel tiling under macro-group residency, tile-size search for weight
// swap passes, memory-access placement), and finally to CIMFlow ISA
// instructions with input row streaming over the NoC.
package compiler

import (
	"fmt"
	"strings"

	"cimflow/internal/model"
)

// Strategy selects the CG-level optimization approach.
type Strategy int

const (
	// StrategyGeneric partitions greedily and maps each operator to its
	// minimum core count: inter-layer pipelining, no duplication (baseline 1).
	StrategyGeneric Strategy = iota
	// StrategyDuplication partitions greedily, then opportunistically
	// duplicates bottleneck operators into vacant cores (CIM-MLC style,
	// baseline 2).
	StrategyDuplication
	// StrategyDP jointly chooses the partition and the duplication with the
	// dynamic program of Alg. 1 (the paper's contribution).
	StrategyDP
)

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	switch s {
	case StrategyGeneric:
		return "generic"
	case StrategyDuplication:
		return "duplication"
	case StrategyDP:
		return "dp"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a name to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch strings.ToLower(s) {
	case "generic":
		return StrategyGeneric, nil
	case "duplication", "cim-mlc", "opportunistic":
		return StrategyDuplication, nil
	case "dp", "optimized":
		return StrategyDP, nil
	}
	return 0, fmt.Errorf("compiler: unknown strategy %q", s)
}

// Options configures compilation.
type Options struct {
	Strategy Strategy
}

// ErrInfeasible is a compilation point the chip cannot hold: operator Node
// needs Need of Resource ("macro groups" or "cores" per op, "local memory
// bytes" or "instruction memory bytes" per core) where the chip has Have.
// The planner finds macro-group and core limits, so Partition and Estimate
// report them; local and instruction memory are codegen's findings, since
// buffer sizes and code come from emission.
type ErrInfeasible struct {
	Node     string
	Resource string
	Need     int
	Have     int
}

func (e *ErrInfeasible) Error() string {
	return fmt.Sprintf("compiler: %s does not fit: needs %d %s, has %d", e.Node, e.Need, e.Resource, e.Have)
}

// unit is a condensed computation-graph node: an anchor operator (conv,
// dense or depthwise conv) together with the auxiliary operators grouped
// onto it (activations, pooling, residual adds...).
type unit struct {
	id     int
	anchor *model.Node
	nodes  []*model.Node // in topological order, anchor first
	// weightBytes is the CIM-resident weight footprint (conv/dense only).
	weightBytes int
	// deps are unit ids this unit consumes from (excluding graph input).
	deps []int
	mask bmask // dependency closure of this unit incl. itself
}

// Shard is one core's slice of a replica: a contiguous output-channel range
// and the macro groups holding its weights.
type Shard struct {
	Core      int
	ChanStart int
	ChanCount int
}

// Replica computes a contiguous output-row range with a full copy of the
// operator's weights spread across its shards.
type Replica struct {
	RowStart, RowEnd int // output rows [start, end)
	Shards           []Shard
}

// OpPlan is the placement of one graph node.
type OpPlan struct {
	Node     *model.Node
	Replicas []Replica
	// GlobalOut >= 0 is the byte offset in global memory where this node's
	// output must also be materialized (consumed in a later stage, or the
	// network output). -1 otherwise.
	GlobalOut int
	// Passes is the number of weight-swap passes (1 = fully resident).
	Passes int
}

// Cores returns every core participating in the plan.
func (p *OpPlan) Cores() []int {
	var out []int
	for _, r := range p.Replicas {
		for _, s := range r.Shards {
			out = append(out, s.Core)
		}
	}
	return out
}

// Stage is one execution stage: all weights of its MVM operators are
// resident simultaneously, operators stream rows to each other over the NoC.
type Stage struct {
	ID  int
	Ops []*OpPlan // topological order
}

// Plan is the complete CG-level compilation decision.
type Plan struct {
	Strategy Strategy
	Stages   []*Stage
	// EstimatedCycles is the cost model's prediction (the simulator
	// measures the truth).
	EstimatedCycles float64
	// ClosureCapHit reports that the DP's dependency-closure enumeration
	// exceeded its fixed cap of 4,096 closures and the partition was built
	// on the linear-prefix fallback closures (sound, but no longer the
	// exhaustive Alg. 1 search). Always false for the greedy strategies.
	ClosureCapHit bool
	// ClosuresEnumerated counts the distinct closures the enumeration
	// visited before stopping (cap+1 or more when the cap was hit).
	ClosuresEnumerated int

	// Node-indexed lookups, built by buildIndex after planning; nil maps
	// fall back to a linear scan (hand-built plans in tests).
	nodeOp    map[int]*OpPlan
	nodeStage map[int]int
}

// buildIndex tabulates the node -> OpPlan and node -> stage lookups that
// layout and codegen query per shard.
func (p *Plan) buildIndex() {
	p.nodeOp = map[int]*OpPlan{}
	p.nodeStage = map[int]int{}
	for si, st := range p.Stages {
		for _, op := range st.Ops {
			p.nodeOp[op.Node.ID] = op
			p.nodeStage[op.Node.ID] = si
		}
	}
}

// opPlanByNode finds the plan of a node anywhere in the plan.
func (p *Plan) opPlanByNode(id int) *OpPlan {
	if p.nodeOp != nil {
		return p.nodeOp[id]
	}
	for _, st := range p.Stages {
		for _, op := range st.Ops {
			if op.Node.ID == id {
				return op
			}
		}
	}
	return nil
}

// stageOf returns the stage index hosting a node, or -1.
func (p *Plan) stageOf(id int) int {
	if p.nodeStage != nil {
		if si, ok := p.nodeStage[id]; ok {
			return si
		}
		return -1
	}
	for si, st := range p.Stages {
		for _, op := range st.Ops {
			if op.Node.ID == id {
				return si
			}
		}
	}
	return -1
}

// Summary renders the plan for reports and debugging.
func (p *Plan) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy %s, %d stages, est %.0f cycles", p.Strategy, len(p.Stages), p.EstimatedCycles)
	if p.ClosureCapHit {
		fmt.Fprintf(&b, ", closure cap hit (%d enumerated, linear-prefix fallback)", p.ClosuresEnumerated)
	}
	b.WriteByte('\n')
	for _, st := range p.Stages {
		fmt.Fprintf(&b, " stage %d:\n", st.ID)
		for _, op := range st.Ops {
			cores := op.Cores()
			fmt.Fprintf(&b, "  %-24s x%d replicas, %d cores, %d passes",
				op.Node.Name, len(op.Replicas), len(cores), op.Passes)
			if op.GlobalOut >= 0 {
				fmt.Fprintf(&b, ", out@global+%d", op.GlobalOut)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// condense groups the graph into units: each MVM-based or depthwise
// operator anchors a unit; auxiliary operators join the unit of their first
// producer. Flatten nodes are transparent (pure layout reinterpretation).
func condense(g *model.Graph) ([]*unit, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	unitOf := make([]int, len(g.Nodes)) // node id -> unit id; -1 input/flatten
	for i := range unitOf {
		unitOf[i] = -1
	}
	var units []*unit
	isAnchor := func(n *model.Node) bool {
		return n.Op == model.OpConv || n.Op == model.OpDense || n.Op == model.OpDWConv
	}
	// resolve maps through flatten nodes to the real producer.
	resolve := func(id int) int {
		for g.Nodes[id].Op == model.OpFlatten {
			id = g.Nodes[id].Inputs[0]
		}
		return id
	}
	for _, n := range g.Nodes {
		switch {
		case n.Op == model.OpInput || n.Op == model.OpFlatten:
			continue
		case isAnchor(n):
			u := &unit{id: len(units), anchor: n}
			u.nodes = append(u.nodes, n)
			u.weightBytes = 0
			if n.Op != model.OpDWConv {
				u.weightBytes = n.WeightBytes(g.InC(n))
			}
			unitOf[n.ID] = u.id
			units = append(units, u)
		default:
			// Attach to the latest producer's unit so unit dependencies
			// stay topologically ordered (a residual add consuming a
			// later-built downsample branch joins that branch's unit).
			best := -1
			for _, in := range n.Inputs {
				src := resolve(in)
				if unitOf[src] > best {
					best = unitOf[src]
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("compiler: node %s (%s) has no producer unit (graphs must start with an MVM operator)",
					n.Name, n.Op)
			}
			u := units[best]
			u.nodes = append(u.nodes, n)
			unitOf[n.ID] = u.id
		}
	}
	if len(units) == 0 {
		return nil, fmt.Errorf("compiler: graph %s has no MVM operators", g.Name)
	}
	if len(units) > 128 {
		return nil, fmt.Errorf("compiler: graph %s condenses to %d units, closure bitmasks support 128", g.Name, len(units))
	}
	// Dependencies between units.
	for _, u := range units {
		seen := map[int]bool{}
		for _, n := range u.nodes {
			for _, in := range n.Inputs {
				src := resolve(in)
				if src == 0 {
					continue
				}
				du := unitOf[src]
				if du >= 0 && du != u.id && !seen[du] {
					seen[du] = true
					u.deps = append(u.deps, du)
				}
			}
		}
	}
	// Dependency closures (transitive) as bitmasks.
	for _, u := range units {
		m := bit(u.id)
		for _, d := range u.deps {
			m = m.or(units[d].mask)
		}
		u.mask = m
	}
	return units, nil
}
