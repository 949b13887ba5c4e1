package dse

import (
	"sort"
	"strconv"

	"cimflow/internal/report"
)

// Objective is one candidate's position in the bi-objective plane a sweep
// optimizes: throughput (higher better) and energy (lower better).
type Objective struct {
	TOPS     float64
	EnergyMJ float64
}

// objective extracts the fitness coordinates of a successful result.
func (r *PointResult) objective() Objective {
	return Objective{TOPS: r.Metrics.TOPS, EnergyMJ: r.Metrics.EnergyMJ}
}

// dominates reports whether a is at least as good as b on both objectives
// and strictly better on at least one.
func dominates(a, b Objective) bool {
	if a.TOPS < b.TOPS || a.EnergyMJ > b.EnergyMJ {
		return false
	}
	return a.TOPS > b.TOPS || a.EnergyMJ < b.EnergyMJ
}

// ParetoIndices returns the indices (ascending) of the points on the
// energy/throughput Pareto frontier: the rank-0 set of Ranks over the
// successfully simulated points. Errored points are never on the frontier
// and never dominate.
func ParetoIndices(results []PointResult) []int {
	var ok []int
	var objs []Objective
	for i := range results {
		if results[i].Err == nil {
			ok = append(ok, i)
			objs = append(objs, results[i].objective())
		}
	}
	var front []int
	for k, rank := range Ranks(objs) {
		if rank == 0 {
			front = append(front, ok[k])
		}
	}
	return front
}

// ParetoFront returns the Pareto-optimal subset of results, in point order.
func ParetoFront(results []PointResult) []PointResult {
	idx := ParetoIndices(results)
	front := make([]PointResult, 0, len(idx))
	for _, i := range idx {
		front = append(front, results[i])
	}
	return front
}

// Best returns the successful result maximizing score (earliest point wins
// ties), and false if every point failed.
func Best(results []PointResult, score func(Metrics) float64) (PointResult, bool) {
	var best PointResult
	bestScore, found := 0.0, false
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		if s := score(r.Metrics); !found || s > bestScore {
			best, bestScore, found = r, s, true
		}
	}
	return best, found
}

// Common best-point objectives.
var (
	// ScoreTOPS maximizes throughput.
	ScoreTOPS = func(m Metrics) float64 { return m.TOPS }
	// ScoreEnergy minimizes total energy.
	ScoreEnergy = func(m Metrics) float64 { return -m.EnergyMJ }
	// ScoreEDP minimizes the energy-delay product, the usual single-number
	// compromise between the two sweep objectives.
	ScoreEDP = func(m Metrics) float64 { return -m.EnergyMJ * m.Seconds }
)

// ResultTable renders sweep results as a table: one row per point with its
// knobs, headline metrics, Pareto marker and error, suitable for both text
// and CSV output.
func ResultTable(title string, results []PointResult) *report.Table {
	onFront := make(map[int]bool)
	for _, i := range ParetoIndices(results) {
		onFront[i] = true
	}
	t := report.New(title,
		"model", "strategy", "mg_size", "flit_B", "mesh", "localmem_KB",
		"cycles", "cost_est", "tops", "energy_mJ", "pareto", "error")
	for i, r := range results {
		p := r.Point
		mark, errMsg := "", ""
		if onFront[i] {
			mark = "*"
		}
		if r.Err != nil {
			errMsg = r.Err.Error()
		}
		mesh := ""
		if p.Mesh != ([2]int{}) {
			mesh = intPair(p.Mesh)
		}
		t.Add(p.Model, p.Strategy.String(), orDash(p.MGSize), orDash(p.FlitBytes),
			mesh, orDash(p.LocalMemKB), r.Metrics.Cycles, costEstCell(r.CostEst),
			r.Metrics.TOPS, r.Metrics.EnergyMJ, mark, errMsg)
	}
	return t
}

// costEstCell renders the cost-model cycle estimate, blank when the point
// never reached the planning stage (or predates the column in a checkpoint).
func costEstCell(est float64) string {
	if est == 0 {
		return ""
	}
	return strconv.FormatInt(int64(est+0.5), 10)
}

func orDash(v int) string {
	if v == 0 {
		return "-"
	}
	return strconv.Itoa(v)
}

func intPair(m [2]int) string { return strconv.Itoa(m[0]) + "x" + strconv.Itoa(m[1]) }

// Ranks assigns each objective its nondomination rank: 0 for the Pareto
// frontier, 1 for the frontier once rank 0 is removed, and so on. O(n^2)
// per rank — fine for the population sizes search runs at.
func Ranks(objs []Objective) []int {
	ranks := make([]int, len(objs))
	for i := range ranks {
		ranks[i] = -1
	}
	for rank, left := 0, len(objs); left > 0; rank++ {
		var front []int
		for i, a := range objs {
			if ranks[i] >= 0 {
				continue
			}
			nd := true
			for j, b := range objs {
				if i != j && ranks[j] < 0 && dominates(b, a) {
					nd = false
					break
				}
			}
			if nd {
				front = append(front, i)
			}
		}
		if len(front) == 0 { // unreachable for finite inputs; guards NaN
			break
		}
		for _, i := range front {
			ranks[i] = rank
		}
		left -= len(front)
	}
	return ranks
}

// Hypervolume computes the 2D dominated hypervolume of a set against a
// reference point (ref must be dominated by every member that should
// contribute: lower TOPS, higher energy). It is the scalar progress signal
// of a multi-objective search — monotone in frontier quality, maximal when
// the true frontier is found.
func Hypervolume(objs []Objective, ref Objective) float64 {
	pts := make([]Objective, 0, len(objs))
	for _, o := range objs {
		if o.TOPS > ref.TOPS && o.EnergyMJ < ref.EnergyMJ {
			pts = append(pts, o)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	// Sweep by descending TOPS; each point adds a rectangle down to the
	// best (lowest) energy seen so far.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].TOPS != pts[j].TOPS {
			return pts[i].TOPS > pts[j].TOPS
		}
		return pts[i].EnergyMJ < pts[j].EnergyMJ
	})
	hv, bestE := 0.0, ref.EnergyMJ
	for _, p := range pts {
		if p.EnergyMJ < bestE {
			hv += (p.TOPS - ref.TOPS) * (bestE - p.EnergyMJ)
			bestE = p.EnergyMJ
		}
	}
	return hv
}

// crowding computes the NSGA-II crowding distance of each objective within
// its own rank: boundary points get +Inf (here: a large constant), interior
// points the normalized side lengths of their bounding rectangle. Used as
// the diversity tie-break when truncating a population by rank.
func crowding(objs []Objective, ranks []int) []float64 {
	const inf = 1e18
	d := make([]float64, len(objs))
	byRank := map[int][]int{}
	for i, r := range ranks {
		byRank[r] = append(byRank[r], i)
	}
	for _, members := range byRank {
		if len(members) <= 2 {
			for _, i := range members {
				d[i] = inf
			}
			continue
		}
		sort.Slice(members, func(a, b int) bool { return objs[members[a]].TOPS < objs[members[b]].TOPS })
		span := func(lo, hi float64) float64 {
			if hi > lo {
				return hi - lo
			}
			return 1
		}
		tSpan := span(objs[members[0]].TOPS, objs[members[len(members)-1]].TOPS)
		var eLo, eHi float64
		for k, i := range members {
			e := objs[i].EnergyMJ
			if k == 0 || e < eLo {
				eLo = e
			}
			if k == 0 || e > eHi {
				eHi = e
			}
		}
		eSpan := span(eLo, eHi)
		d[members[0]] = inf
		d[members[len(members)-1]] = inf
		for k := 1; k < len(members)-1; k++ {
			i := members[k]
			d[i] += (objs[members[k+1]].TOPS - objs[members[k-1]].TOPS) / tSpan
			d[i] += abs(objs[members[k+1]].EnergyMJ-objs[members[k-1]].EnergyMJ) / eSpan
		}
	}
	return d
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// fitnessOrder returns all candidate positions sorted fittest-first by
// (nondomination rank, crowding distance), ties resolved by position for
// determinism.
func fitnessOrder(objs []Objective) []int {
	ranks := Ranks(objs)
	crowd := crowding(objs, ranks)
	order := make([]int, len(objs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if ranks[i] != ranks[j] {
			return ranks[i] < ranks[j]
		}
		if crowd[i] != crowd[j] {
			return crowd[i] > crowd[j]
		}
		return i < j
	})
	return order
}

// selectBest returns the positions of the n fittest candidates by
// (nondomination rank, crowding distance) — the standard truncation of a
// (mu+lambda) multi-objective step. Returned in ascending position order.
func selectBest(objs []Objective, n int) []int {
	if n >= len(objs) {
		out := make([]int, len(objs))
		for i := range out {
			out[i] = i
		}
		return out
	}
	picked := append([]int(nil), fitnessOrder(objs)[:n]...)
	sort.Ints(picked)
	return picked
}
