package compiler

import (
	"fmt"

	"cimflow/internal/model"
)

// stageAlloc is the mapping decision for one stage: a replica count per
// unit (index-aligned with the units slice).
type stageAlloc struct {
	units    []*unit
	replicas []int
	cycles   float64
}

// mapStage implements OptimalMapping from Alg. 1: allocate each unit its
// minimum cluster, then greedily duplicate the bottleneck unit's weights
// into vacant cores while the cost model predicts a net gain. It returns an
// infinite cost when the stage cannot fit the chip.
func (cm *costModel) mapStage(units []*unit, numCores int, inStage bmask, duplicate bool) (stageAlloc, bool) {
	alloc := stageAlloc{units: units, replicas: make([]int, len(units))}
	used := 0
	for i, u := range units {
		min := cm.unitMinCores(u)
		if min > numCores {
			// A single operator larger than the chip is only schedulable
			// alone, with weight-swap passes over all cores.
			if len(units) != 1 {
				return alloc, false
			}
			min = numCores
		}
		alloc.replicas[i] = 1
		used += min
	}
	if used > numCores {
		return alloc, false
	}
	// cs[i] is unit i's cost at replicas[i] and fs[i] its fill term. A trial
	// replica changes one entry, so cost() folds the tables instead of
	// re-deriving every unit: the same operands in the same order.
	cs := make([]float64, 2*len(units))
	fs := cs[len(units):]
	set := func(i int) {
		cs[i] = cm.unitCost(units[i], alloc.replicas[i])
		fs[i] = cs[i] / float64(units[i].anchor.OutShape.H+1)
	}
	for i := range units {
		set(i)
	}
	cost := func() float64 {
		worst := 0.0
		var fill float64
		for i, c := range cs[:len(units)] {
			if c > worst {
				worst = c
			}
			fill += fs[i]
		}
		return worst + fill
	}
	if duplicate {
		for {
			free := numCores - used
			if free <= 0 {
				break
			}
			// Find the bottleneck unit that can still be duplicated.
			bestIdx, bestGain := -1, 0.0
			base := cost()
			for i, u := range units {
				min := cm.unitMinCores(u)
				if min > free || alloc.replicas[i] >= cm.unitMaxReplicas(u) {
					continue
				}
				c, f := cs[i], fs[i]
				alloc.replicas[i]++
				set(i)
				gain := base - cost()
				alloc.replicas[i]--
				cs[i], fs[i] = c, f
				// Normalize by cores spent so cheap duplications win ties.
				if gain > 0 && (bestIdx < 0 || gain/float64(min) > bestGain) {
					bestIdx, bestGain = i, gain/float64(min)
				}
			}
			if bestIdx < 0 {
				break
			}
			alloc.replicas[bestIdx]++
			set(bestIdx)
			used += cm.unitMinCores(units[bestIdx])
		}
	}
	alloc.cycles = cost() + cm.weightLoadCycles(units, alloc.replicas) + cm.boundaryCycles(units, inStage)
	return alloc, true
}

func geometryPasses(cm *costModel, u *unit) int {
	if u.anchor.Op == model.OpConv || u.anchor.Op == model.OpDense {
		return cm.geom(u.anchor).passes
	}
	return 1
}

// buildStage turns a stage allocation into concrete core assignments:
// clusters are laid out on consecutive core ids (row-major mesh order, so
// pipeline neighbors are mesh neighbors), each replica gets its minimum
// cores, shards split output channels, and auxiliary operators inherit the
// placement of their producers.
func (cm *costModel) buildStage(id int, alloc stageAlloc) (*Stage, error) {
	st := &Stage{ID: id}
	nextCore := 0
	numCores := cm.cfg.NumCores()
	groupChans := cm.cfg.GroupChannels()
	for ui, u := range alloc.units {
		anchor := u.anchor
		minCores := cm.unitMinCores(u)
		if minCores > numCores {
			minCores = numCores
		}
		replicas := alloc.replicas[ui]
		if nextCore+minCores*replicas > numCores {
			return nil, fmt.Errorf("compiler: stage %d overflows cores placing %s", id, anchor.Name)
		}

		plan := &OpPlan{Node: anchor, GlobalOut: -1, Passes: geometryPasses(cm, u)}
		rowRanges := splitRows(anchor.OutShape.H, replicas)
		for _, rr := range rowRanges {
			rep := Replica{RowStart: rr[0], RowEnd: rr[1]}
			for _, sc := range shardChans(anchor.Cout, groupChans, minCores) {
				rep.Shards = append(rep.Shards, Shard{Core: nextCore, ChanStart: sc[0], ChanCount: sc[1]})
				nextCore++
			}
			plan.Replicas = append(plan.Replicas, rep)
		}
		st.Ops = append(st.Ops, plan)

		// Auxiliary operators inherit the anchor placement, rescaled to
		// their own output geometry.
		for _, n := range u.nodes[1:] {
			aux := &OpPlan{Node: n, GlobalOut: -1, Passes: 1}
			prod := st.Ops[len(st.Ops)-1] // previous op in the unit chain
			aux.Replicas = inheritPlacement(prod, n)
			st.Ops = append(st.Ops, aux)
		}
	}
	return st, nil
}

// inheritPlacement maps an auxiliary operator onto its producer's cores:
// the same core list, with row ranges rescaled to the aux output height and
// channels resplit over the aux channel count.
func inheritPlacement(prod *OpPlan, n *model.Node) []Replica {
	cores := prod.Cores()
	out := n.OutShape
	replicas := len(prod.Replicas)
	if replicas > out.H {
		replicas = out.H
	}
	coresPer := len(cores) / replicas
	if coresPer == 0 {
		coresPer = 1
	}
	rowRanges := splitRows(out.H, replicas)
	var reps []Replica
	ci := 0
	for _, rr := range rowRanges {
		rep := Replica{RowStart: rr[0], RowEnd: rr[1]}
		avail := coresPer
		if ci+avail > len(cores) {
			avail = len(cores) - ci
		}
		for _, sc := range splitChansPlain(out.C, avail) {
			rep.Shards = append(rep.Shards, Shard{Core: cores[ci], ChanStart: sc[0], ChanCount: sc[1]})
			ci++
		}
		reps = append(reps, rep)
	}
	return reps
}

// splitChansPlain splits c channels over n cores without group alignment
// (auxiliary operators have no macro-group granularity).
func splitChansPlain(c, n int) [][2]int {
	if n > c {
		n = c
	}
	out := make([][2]int, 0, n)
	base, rem := c/n, c%n
	start := 0
	for i := 0; i < n; i++ {
		cc := base
		if i < rem {
			cc++
		}
		out = append(out, [2]int{start, cc})
		start += cc
	}
	return out
}
