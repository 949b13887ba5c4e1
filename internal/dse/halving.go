package dse

// halvingEta is successive halving's per-rung cull factor.
const halvingEta = 4

// halving is successive halving over the two-fidelity ladder: a wide rung
// of candidates is priced at the free planning-stage fidelity, repeatedly
// culled by a factor of halvingEta on estimated Pareto fitness, and the
// final rung — at most the simulation budget — is promoted to
// cycle-accurate simulation. On spaces the sample covers entirely (like
// the paper's Fig. 6 grid) the screen is exhaustive, so the promoted set is
// the estimate-space Pareto front padded with the next-best ranks.
func halving(t *tour) {
	budget := t.Remaining()
	if budget <= 0 {
		return
	}
	// Rung 0 width: eta^2 x budget candidates (whole space when it fits) —
	// wide enough that two culls still land on the budget.
	n0 := budget
	for i := 0; i < 2 && n0 < t.space.Size(); i++ {
		n0 *= halvingEta
	}
	cands := sampleDistinct(t, n0)

	// Screen at the free fidelity (dead or unplannable cells drop out),
	// then cull by estimated Pareto fitness until the rung fits the budget.
	alive := fittest(t.EstimateBatch(cands), len(cands))
	for len(alive) > budget {
		alive = fittest(alive, max(len(alive)/halvingEta, budget))
	}
	t.SimBatch(indices(alive))
}

// sampleDistinct draws up to n distinct indices from the space with the
// tour's RNG. When n covers the space the sample is the identity
// enumeration (deterministic, no RNG spent); otherwise rejection sampling
// over a seen-set, which stays cheap while n is well under the space size.
func sampleDistinct(t *tour, n int) []int {
	size := t.space.Size()
	if n >= size {
		out := make([]int, size)
		for i := range out {
			out[i] = i
		}
		return out
	}
	if n > size/2 {
		// Dense sample: shuffle the full enumeration instead of rejecting.
		perm := t.rng.Perm(size)
		return perm[:n]
	}
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		i := t.rng.Intn(size)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}
