package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"time"

	"cimflow"
)

// coldWorkers is the sweep's worker-pool size: the paper's DSE user on this
// host's two cores.
const coldWorkers = 2

// coldRoundSeconds is the nominal host time of one round of nine points at
// two workers; a run sweeps as many rounds as fit its --seconds at that
// pace (six — the whole grid — in the standard 20 s), whatever the host's
// pace turns out to be. The work is fixed so that the model mix, the cache
// contents and hence heap_live_mb and alloc_kb_per_op repeat exactly.
const coldRoundSeconds = 10.0 / 3

// coldGrid is the swept design space. Round 0 is the default architecture
// (MG 8, flit 8): sim_cycles / sim_energy_mj are summed over its nine
// programs so that they do not depend on how many rounds a run is given.
type coldGrid struct {
	models     []string
	strategies []string
	mg, flit   []int
}

func coldSpace(c *config) coldGrid {
	if c.smoke {
		return coldGrid{[]string{"tinycnn", "tinymobile"}, []string{"generic", "dp"}, []int{8}, []int{8, 16}}
	}
	return coldGrid{[]string{"resnet18", "mobilenetv2", "efficientnetb0"},
		[]string{"generic", "duplication", "dp"}, []int{4, 8, 16}, []int{8, 16}}
}

// points expands the grid into rounds — one (MG, flit) architecture each,
// holding every (model, strategy) pair once — so that any prefix of the
// list has the same model mix: the default architecture first, the others
// in seeded order, the pairs shuffled inside each round. The seed also
// drives the points' weights and inputs.
func (g coldGrid) points(seed uint64) ([]cimflow.SweepPoint, int, error) {
	spec := cimflow.SweepSpec{Name: "cold_dse", Models: g.models, Strategies: g.strategies,
		MGSizes: g.mg, FlitBytes: g.flit, Seed: seed}
	all, err := spec.Expand(cimflow.DefaultConfig())
	if err != nil {
		return nil, 0, err
	}
	def := cimflow.DefaultConfig()
	rounds := make(map[[2]int][]cimflow.SweepPoint)
	var archs [][2]int
	for _, p := range all {
		a := [2]int{p.MGSize, p.FlitBytes}
		if rounds[a] == nil && a != [2]int{def.Core.MacrosPerGroup, def.Chip.NoCFlitBytes} {
			archs = append(archs, a)
		}
		rounds[a] = append(rounds[a], p)
	}
	rng := rand.New(rand.NewPCG(seed, 0xc01d))
	rng.Shuffle(len(archs), func(i, j int) { archs[i], archs[j] = archs[j], archs[i] })
	archs = append([][2]int{{def.Core.MacrosPerGroup, def.Chip.NoCFlitBytes}}, archs...)
	var out []cimflow.SweepPoint
	for _, a := range archs {
		r := rounds[a]
		rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
		out = append(out, r...)
	}
	return out, len(rounds[archs[0]]), nil
}

// coldRefs holds one golden output per model: the functional output must
// not depend on strategy or architecture.
type coldRefs map[string]cimflow.Tensor

func coldGolden(ctx context.Context, models []string, seed uint64) (coldRefs, time.Duration, error) {
	refs := make(coldRefs)
	var cost time.Duration
	for _, name := range models {
		g, err := cimflow.LookupModel(name)
		if err != nil {
			return nil, 0, err
		}
		in := cimflow.SeededInput(g.Nodes[0].OutShape, seed+1) // what dse feeds a point
		outs, d, err := golden(ctx, g, seed, []cimflow.Tensor{in})
		if err != nil {
			return nil, 0, err
		}
		refs[name], cost = outs[0], cost+d
	}
	return refs, cost, nil
}

// sweep runs the points on the sweep engine with the given (fresh) compile
// cache. It returns the results, when each completed (by point index, from
// the sweep's start) and the wall time.
func sweep(ctx context.Context, points []cimflow.SweepPoint, workers int, cache *cimflow.CompileCache) ([]cimflow.SweepResult, map[int]time.Duration, time.Duration) {
	ends := make(map[int]time.Duration, len(points))
	start := time.Now()
	results, _ := cimflow.RunSweep(ctx, points, cimflow.SweepOptions{
		Workers: workers,
		Cache:   cache,
		// OnResult calls are serialized by the sweep engine.
		OnResult: func(r cimflow.SweepResult) { ends[r.Point.Index] = time.Since(start) },
	})
	return results, ends, time.Since(start)
}

// coldVerify checks the swept points and returns their latencies (ms,
// compile + simulate wall) and the completion events of the ones that
// passed.
func coldVerify(v *verifier, results []cimflow.SweepResult, ends map[int]time.Duration, refs coldRefs) (lat []float64, dones []done) {
	for _, r := range results {
		key := programKey(r.Point.Model, r.Point.Strategy, &r.Point.Config)
		if v.op(key, r.Err, r.Result, refs[r.Point.Model]) {
			dones = append(dones, done{ends[r.Point.Index], 1, r.Result.Stats.Instructions})
		}
		lat = append(lat, ms(r.CompileTime+r.SimTime))
	}
	return lat, dones
}

// coldPoints returns the run's share of the seeded point list: whole
// rounds, as many as fit --seconds at the nominal pace, and how many of
// them form round 0.
func coldPoints(c *config, grid coldGrid) (points []cimflow.SweepPoint, round0 int, err error) {
	points, round0, err = grid.points(c.seed)
	if err != nil {
		return nil, 0, err
	}
	rounds := min(max(int(c.seconds/coldRoundSeconds+0.5), 1), len(points)/round0)
	points = points[:rounds*round0]
	if n := c.maxOps(); n > 0 && len(points) > n {
		points, round0 = points[:n], min(round0, n)
	}
	return points, round0, nil
}

func runCold(ctx context.Context, c *config) (*outcome, error) {
	grid := coldSpace(c)
	type coldSys struct {
		points []cimflow.SweepPoint
		round0 int
		cache  *cimflow.CompileCache
	}
	// The sweep's own set-up is small — graphs, the expanded and validated
	// point list, an empty cache: everything else is paid per point.
	sys, setups, err := repeatSetup(c, func() (*coldSys, error) {
		for _, m := range grid.models {
			if _, err := cimflow.LookupModel(m); err != nil {
				return nil, err
			}
		}
		pts, round0, err := coldPoints(c, grid)
		return &coldSys{pts, round0, cimflow.NewCompileCache()}, err
	}, func(*coldSys) {})
	if err != nil {
		return nil, err
	}
	refs, _, err := coldGolden(ctx, grid.models, c.seed)
	if err != nil {
		return nil, err
	}

	p := &phase{name: c.workload, setups: setups, group: groupEvents(coldWorkers)}
	p.from = markHost()
	results, ends, _ := sweep(ctx, sys.points, coldWorkers, sys.cache)
	p.to = markHost()
	p.heapMB = heapLiveMB() // the cache, still alive, holds every compiled point
	runtime.KeepAlive(sys.cache)

	v := newVerifier()
	p.lat, p.dones = coldVerify(v, results, ends, refs)
	p.allOps = v.attempted
	core := make(map[string]bool)
	for _, pt := range sys.points[:sys.round0] {
		core[programKey(pt.Model, pt.Strategy, &pt.Config)] = true
	}
	return &outcome{p.endToEnd(v, func(k string) bool { return core[k] }), v}, nil
}
