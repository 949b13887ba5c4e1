package cimflow

import (
	"context"

	"cimflow/internal/dse"
)

// Search-based design-space exploration re-exported from internal/dse:
// instead of simulating the full cross-product of a SweepSpec, a search
// strategy navigates the space under a simulation budget, pruning with free
// planning-stage cost estimates and spending cycle-accurate simulations
// only on promising points. The same seed, budget and space reproduce the
// identical trajectory at any worker count.
type (
	// SearchOptions configures a search run: strategy name ("halving" or
	// "hillclimb"), simulation budget, seed, worker pool, compile cache
	// and checkpoint.
	SearchOptions = dse.SearchOptions
	// SearchResult summarizes a run: the charged trajectory in ask order,
	// its Pareto frontier, simulation/estimate counts and hypervolume.
	SearchResult = dse.SearchResult
)

// Search explores a sweep spec's design space under opt.Budget full
// simulations (default: 25% of the space) and returns the found frontier.
func Search(ctx context.Context, spec *SweepSpec, opt SearchOptions) (*SearchResult, error) {
	return dse.Search(ctx, spec, opt)
}
