package compiler

import (
	"math"
	"slices"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/model"
)

// mapStageReference is mapStage as it stood before its cost() read unit costs
// from a table: every candidate replica re-derives every unit's cost. It is
// kept only as TestMapStageMatchesReference's oracle.
func mapStageReference(cm *costModel, units []*unit, numCores int, inStage bmask, duplicate bool) (stageAlloc, bool) {
	alloc := stageAlloc{units: units, replicas: make([]int, len(units))}
	used := 0
	for i, u := range units {
		if cm.unfit[u.id] != nil {
			return alloc, false
		}
		alloc.replicas[i] = 1
		used += cm.unitMinCores(u)
	}
	if used > numCores {
		return alloc, false
	}
	cost := func() float64 {
		worst := 0.0
		var fill float64
		for i, u := range units {
			c := cm.unitCost(u, alloc.replicas[i])
			if c > worst {
				worst = c
			}
			fill += c / float64(u.anchor.OutShape.H+1)
		}
		return worst + fill
	}
	if duplicate {
		for {
			free := numCores - used
			if free <= 0 {
				break
			}
			bestIdx, bestGain := -1, 0.0
			base := cost()
			for i, u := range units {
				min := cm.unitMinCores(u)
				if min > free || alloc.replicas[i] >= cm.unitMaxReplicas(u) {
					continue
				}
				alloc.replicas[i]++
				gain := base - cost()
				alloc.replicas[i]--
				if gain > 0 && (bestIdx < 0 || gain/float64(min) > bestGain) {
					bestIdx, bestGain = i, gain/float64(min)
				}
			}
			if bestIdx < 0 {
				break
			}
			alloc.replicas[bestIdx]++
			used += cm.unitMinCores(units[bestIdx])
		}
	}
	alloc.cycles = cost() + cm.weightLoadCycles(units, alloc.replicas) + cm.boundaryCycles(units, inStage)
	return alloc, true
}

// TestMapStageMatchesReference: mapStage's tabulated cost is the reference's
// arithmetic, bit for bit. Planning every zoo model under every strategy on
// the six architectures the cold_dse benchmark sweeps fills the stage memo
// with every unit set Alg. 1 and the greedy baselines ask about; each is
// mapped again by both, with and without duplication, and must come out with
// the same feasibility, replica counts and cycle estimate.
func TestMapStageMatchesReference(t *testing.T) {
	models, mgs, flits := zooModels, []int{4, 8, 16}, []int{8, 16}
	if testing.Short() {
		models, mgs, flits = []string{"resnet18", "tinyresnet", "tinyse"}, []int{8}, []int{8}
	}
	stages, grown := 0, 0
	for _, name := range models {
		cx, err := NewContext(model.Zoo(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, mg := range mgs {
			for _, flit := range flits {
				cfg := arch.DefaultConfig().WithMacrosPerGroup(mg).WithFlitBytes(flit)
				cm := cx.planner(&cfg)
				for _, s := range allStrategies {
					if _, err := cx.partitionWith(cm, Options{Strategy: s}); err != nil {
						t.Fatalf("%s/%s/%s: %v", name, cfg.Name, s, err)
					}
				}
				for key := range cm.stageMemo {
					ids := key.mask.members()
					us := make([]*unit, len(ids))
					for i, id := range ids {
						us[i] = cm.units[id]
					}
					for _, dup := range []bool{false, true} {
						got, ok := cm.mapStage(us, cfg.NumCores(), key.mask, dup)
						want, wantOK := mapStageReference(cm, us, cfg.NumCores(), key.mask, dup)
						if ok != wantOK || !slices.Equal(got.replicas, want.replicas) ||
							math.Float64bits(got.cycles) != math.Float64bits(want.cycles) {
							t.Fatalf("%s/%s units %v duplicate=%v:\nmapStage  %v %v %v\nreference %v %v %v",
								name, cfg.Name, ids, dup, ok, got.replicas, got.cycles, wantOK, want.replicas, want.cycles)
						}
						if dup && slices.Max(got.replicas) > 1 {
							grown++
						}
					}
					stages++
				}
			}
		}
	}
	// tinymlp's dense layers have one output row and cannot be duplicated;
	// every other model grows replicas somewhere.
	t.Logf("%d memoized stages, %d of them duplicated", stages, grown)
	if stages == 0 || grown < stages/4 {
		t.Errorf("%d memoized stages, %d of them duplicated: the comparison proves little", stages, grown)
	}
}
