package dse

import (
	"fmt"

	"cimflow/internal/arch"
	"cimflow/internal/compiler"
	"cimflow/internal/model"
)

// Space is a Spec indexed for navigation: every point of the spec's
// cross-product is addressable by a dense index in [0, Size). Axis order is
// fixed — models (outermost), strategies, MG sizes, flit widths, core
// meshes, local memory — so the same spec always yields the same point at
// the same index. Expand is every index in order; a search materializes
// points one at a time, which lets it walk spaces too large to enumerate.
type Space struct {
	base   arch.Config
	seed   uint64
	models []string
	strats []compiler.Strategy
	mgs    []int
	flits  []int
	meshes [][2]int
	lms    []int
	size   int
}

// NewSpace indexes a spec over a base configuration. An empty model list,
// an unknown model and an unknown strategy are errors; an invalid derived
// configuration is reported by Point.
func NewSpace(spec *Spec, base arch.Config) (*Space, error) {
	if len(spec.Models) == 0 {
		return nil, fmt.Errorf("dse: spec %q lists no models", spec.Name)
	}
	for _, m := range spec.Models {
		if model.Zoo(m) == nil {
			return nil, fmt.Errorf("dse: unknown model %q (have %v)", m, model.ZooNames())
		}
	}
	strats := []compiler.Strategy{compiler.StrategyDP}
	if len(spec.Strategies) > 0 {
		strats = make([]compiler.Strategy, len(spec.Strategies))
		for i, name := range spec.Strategies {
			var err error
			if strats[i], err = compiler.ParseStrategy(name); err != nil {
				return nil, err
			}
		}
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Space{
		base:   base,
		seed:   seed,
		models: spec.Models,
		strats: strats,
		mgs:    orBase(spec.MGSizes),
		flits:  orBase(spec.FlitBytes),
		meshes: spec.CoreMeshes,
		lms:    orBase(spec.LocalMemKB),
	}
	if len(s.meshes) == 0 {
		s.meshes = [][2]int{{}}
	}
	s.size = len(s.models) * len(s.strats) * len(s.mgs) * len(s.flits) * len(s.meshes) * len(s.lms)
	return s, nil
}

// orBase turns an empty axis into the single "keep base value" sentinel.
func orBase(axis []int) []int {
	if len(axis) == 0 {
		return []int{0}
	}
	return axis
}

// Size is the cardinality of the full cross-product.
func (s *Space) Size() int { return s.size }

// radix is the cardinality of each axis, in index order.
func (s *Space) radix() [6]int {
	return [6]int{len(s.models), len(s.strats), len(s.mgs), len(s.flits), len(s.meshes), len(s.lms)}
}

// Coords decodes an index into per-axis digits (mixed radix, models
// outermost — the digit order of radix).
func (s *Space) Coords(i int) [6]int {
	var c [6]int
	radix := s.radix()
	for a := 5; a >= 0; a-- {
		c[a] = i % radix[a]
		i /= radix[a]
	}
	return c
}

// Index encodes per-axis digits back into a point index.
func (s *Space) Index(c [6]int) int {
	radix := s.radix()
	i := 0
	for a := 0; a < 6; a++ {
		i = i*radix[a] + c[a]
	}
	return i
}

// Point materializes point i. The configuration is validated: Expand fails
// on an invalid point, a search treats it as a dead cell of the grid.
func (s *Space) Point(i int) (Point, error) {
	if i < 0 || i >= s.size {
		return Point{}, fmt.Errorf("dse: point index %d outside space of %d", i, s.size)
	}
	c := s.Coords(i)
	mg, flit := s.mgs[c[2]], s.flits[c[3]]
	mesh, lm := s.meshes[c[4]], s.lms[c[5]]
	cfg := s.base
	if mg != 0 {
		cfg = cfg.WithMacrosPerGroup(mg)
	}
	if flit != 0 {
		cfg = cfg.WithFlitBytes(flit)
	}
	if mesh != ([2]int{}) {
		cfg = cfg.WithCoreMesh(mesh[0], mesh[1])
	}
	if lm != 0 {
		cfg = cfg.WithLocalMemBytes(lm << 10)
	}
	p := Point{
		Index:      i,
		Model:      s.models[c[0]],
		Strategy:   s.strats[c[1]],
		MGSize:     mg,
		FlitBytes:  flit,
		Mesh:       mesh,
		LocalMemKB: lm,
		Seed:       s.seed,
		Config:     cfg,
	}
	if err := cfg.Validate(); err != nil {
		return p, fmt.Errorf("dse: point %s: %w", p.Label(), err)
	}
	return p, nil
}

// Neighbors returns the indices reachable from i by changing exactly one
// axis digit, in deterministic order (axis-major, ascending digit).
func (s *Space) Neighbors(i int) []int {
	c := s.Coords(i)
	radix := s.radix()
	var out []int
	for a := 0; a < 6; a++ {
		for d := 0; d < radix[a]; d++ {
			if d == c[a] {
				continue
			}
			n := c
			n[a] = d
			out = append(out, s.Index(n))
		}
	}
	return out
}
