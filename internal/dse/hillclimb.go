package dse

// hillClimbProbes bounds how many neighbors a hill-climbing step simulates
// before declaring a local optimum.
const hillClimbProbes = 2

// hillClimb is multi-objective hill climbing with random restarts: from a
// random start it repeatedly prices the current point's one-axis
// neighborhood at the free fidelity, promotes the most promising unseen
// neighbors (by estimated Pareto fitness) to simulation, and moves to the
// first one the current point does not dominate. A step that only finds
// dominated neighbors is a local optimum and triggers a restart; restarts
// go on until the budget is spent or no point is left to simulate
// (tour.open). Because every step simulates a never-before-charged point,
// the walk cannot cycle and the budget bounds it exactly.
func hillClimb(t *tour) {
	size := t.space.Size()
	for t.Remaining() > 0 {
		// Pick an unvisited start: a few redraws, then the first point left.
		cur := t.rng.Intn(size)
		for tries := 0; t.Simulated(cur) && tries < 2*size; tries++ {
			cur = t.rng.Intn(size)
		}
		if t.Simulated(cur) {
			if cur = t.open(); cur < 0 {
				return
			}
		}
		res := t.SimBatch([]int{cur})[0]
		if res.Err != nil {
			continue
		}
		curObj := res.objective()

		for t.Remaining() > 0 {
			nbrs := t.space.Neighbors(cur)
			ests := t.EstimateBatch(nbrs)
			// Order candidate moves by estimated fitness; consider only
			// plannable, never-simulated neighbors.
			var cand []estResult
			for _, e := range ests {
				if e.Err == nil && !t.Simulated(e.Index) {
					cand = append(cand, e)
				}
			}
			if len(cand) == 0 {
				break // neighborhood exhausted
			}
			objs := make([]Objective, len(cand))
			for i := range cand {
				objs[i] = cand[i].objective()
			}
			order := fitnessOrder(objs)
			moved := false
			for probe := 0; probe < hillClimbProbes && probe < len(order) && t.Remaining() > 0; probe++ {
				next := cand[order[probe]].Index
				nres := t.SimBatch([]int{next})[0]
				if nres.Err != nil {
					continue
				}
				if nObj := nres.objective(); !dominates(curObj, nObj) {
					cur, curObj, moved = next, nObj, true
					break
				}
			}
			if !moved {
				break // local optimum: restart
			}
		}
	}
}
