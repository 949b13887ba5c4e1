package dse

// Population sizes of the evolutionary loop: evolveMu parents survive each
// generation, evolveLambda offspring are promoted to simulation.
const (
	evolveMu     = 4
	evolveLambda = 2 * evolveMu
)

// evolve is a (mu+lambda) evolutionary loop with an estimate gate: each
// generation breeds 2*lambda candidates by one-axis mutation and uniform
// crossover of tournament-selected parents, prices them at the free
// planning fidelity, promotes only the estimated-fittest lambda to
// simulation, and keeps the mu fittest of parents-plus-offspring by
// nondomination rank and crowding distance. Offspring that repeat an
// already-simulated configuration are rejected at breeding time, so every
// charged simulation is new information.
func evolve(t *tour) {
	var pop []member
	absorb := func(idx []int) {
		for k, r := range t.SimBatch(idx) {
			if r.Err == nil {
				pop = append(pop, member{index: idx[k], obj: r.objective()})
			}
		}
	}
	// Founders: the estimate-fittest of a random sample twice the population.
	founders := fittest(t.EstimateBatch(sampleDistinct(t, 2*evolveMu)), evolveMu)
	absorb(indices(founders))

	for t.Remaining() > 0 && len(pop) > 0 {
		// Breed a 2x-oversized brood, skipping repeats of anything simulated.
		popObjs := make([]Objective, len(pop))
		for i, m := range pop {
			popObjs[i] = m.obj
		}
		popRanks := Ranks(popObjs)
		brood := make([]int, 0, 2*evolveLambda)
		broodSeen := map[int]bool{}
		for tries := 0; len(brood) < 2*evolveLambda && tries < 20*evolveLambda; tries++ {
			child := breed(t, pop, popRanks)
			if child < 0 || broodSeen[child] || t.Simulated(child) {
				continue
			}
			broodSeen[child] = true
			brood = append(brood, child)
		}
		if len(brood) == 0 {
			break // the reachable space is exhausted
		}
		// Estimate gate: promote only the predicted-fittest lambda.
		cand := fittest(t.EstimateBatch(brood), evolveLambda)
		if len(cand) == 0 {
			// The whole brood is dead or unplannable: take in the first
			// point left instead, if there is one.
			i := t.open()
			if i < 0 {
				break
			}
			cand = t.EstimateBatch([]int{i})
		}
		absorb(indices(cand))

		// (mu+lambda) truncation.
		if len(pop) > evolveMu {
			all := make([]Objective, len(pop))
			for i, m := range pop {
				all[i] = m.obj
			}
			next := make([]member, 0, evolveMu)
			for _, i := range selectBest(all, evolveMu) {
				next = append(next, pop[i])
			}
			pop = next
		}
	}
}

// member is one population entry: a simulated space index and its fitness.
type member struct {
	index int
	obj   Objective
}

// breed produces one child index: binary-tournament parent selection on
// nondomination rank, optional uniform crossover with a second parent, and
// a one-axis mutation. Returns -1 when the space has no mutable axis.
func breed(t *tour, pop []member, ranks []int) int {
	rng := t.rng
	tournament := func() int {
		a, b := rng.Intn(len(pop)), rng.Intn(len(pop))
		if ranks[b] < ranks[a] {
			return b
		}
		return a
	}
	space := t.space
	coords := space.Coords(pop[tournament()].index)
	if len(pop) > 1 && rng.Intn(2) == 0 {
		other := space.Coords(pop[tournament()].index)
		for a := range coords {
			if rng.Intn(2) == 0 {
				coords[a] = other[a]
			}
		}
	}
	// Mutate one non-degenerate axis to a different digit.
	axes := space.Axes()
	var mutable []int
	for a, ax := range axes {
		if ax.Size > 1 {
			mutable = append(mutable, a)
		}
	}
	if len(mutable) == 0 {
		return -1
	}
	a := mutable[rng.Intn(len(mutable))]
	d := rng.Intn(axes[a].Size - 1)
	if d >= coords[a] {
		d++
	}
	coords[a] = d
	return space.Index(coords)
}
