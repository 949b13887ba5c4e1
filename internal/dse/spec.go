// Package dse is the design-space exploration engine: declarative sweep
// specifications over models, compilation strategies and hardware knobs,
// a parallel worker-pool runner with compile caching and checkpoint/resume,
// and analysis helpers (Pareto frontier, best-point selection).
//
// This is the paper's headline use case (Sec. IV, Figs. 6-7): early-stage
// architectural exploration where the energy/throughput landscape of a
// digital CIM chip is read off a sweep of hardware parameters crossed with
// compilation strategies. A Spec names the axes, Expand turns it into a
// deterministic list of Points, Run simulates them on a worker pool, and
// ParetoFront/Best summarize the result.
//
// Search finds the same frontier in a fraction of the sweep's simulations:
// a strategy (successive halving, or hill climbing with random restarts)
// walks the spec's Space, ranks candidates by free planning-stage
// estimates and simulates only the survivors. Every search is reproducible
// from its seed at any worker count, and its checkpoint resumes it.
package dse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"cimflow/internal/arch"
	"cimflow/internal/artifact"
	"cimflow/internal/compiler"
)

// Spec is a declarative sweep: the cross-product of every listed axis.
// Empty axes keep the base configuration's value, so a Spec with only
// Models and Strategies degenerates to a strategy comparison (Fig. 5)
// while adding MGSizes and FlitBytes reproduces the Fig. 6/7 sweeps.
type Spec struct {
	// Name labels the sweep in tables and checkpoints.
	Name string `json:"name,omitempty"`
	// Models are zoo model names (see model.ZooNames). Required.
	Models []string `json:"models"`
	// Strategies are compilation strategy names ("generic", "duplication",
	// "dp"). Empty defaults to ["dp"].
	Strategies []string `json:"strategies,omitempty"`
	// MGSizes sweeps macros per group (the Fig. 6 "MG size" knob).
	MGSizes []int `json:"mg_sizes,omitempty"`
	// FlitBytes sweeps the NoC link bandwidth (the Fig. 6 flit-width knob).
	FlitBytes []int `json:"flit_bytes,omitempty"`
	// CoreMeshes sweeps the core array as [rows, cols] pairs (core count).
	CoreMeshes [][2]int `json:"core_meshes,omitempty"`
	// LocalMemKB sweeps the per-core local memory (buffer) capacity.
	LocalMemKB []int `json:"local_mem_kb,omitempty"`
	// Seed is the synthetic weight/input seed (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Base optionally overrides the Table I default architecture; it is a
	// partial arch config JSON object, absent fields inherit defaults.
	Base json.RawMessage `json:"base,omitempty"`
}

// Point is one fully-resolved sweep point: a model, a strategy and a
// concrete architecture configuration. Knob fields are 0 (or zero-valued)
// when the corresponding axis was not swept.
type Point struct {
	Index      int
	Model      string
	Strategy   compiler.Strategy
	MGSize     int
	FlitBytes  int
	Mesh       [2]int
	LocalMemKB int
	Seed       uint64
	Config     arch.Config
}

// Label renders a compact human-readable point identifier.
func (p *Point) Label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%v", p.Model, p.Strategy)
	if p.MGSize != 0 {
		fmt.Fprintf(&b, "/mg%d", p.MGSize)
	}
	if p.FlitBytes != 0 {
		fmt.Fprintf(&b, "/flit%d", p.FlitBytes)
	}
	if p.Mesh != ([2]int{}) {
		fmt.Fprintf(&b, "/mesh%dx%d", p.Mesh[0], p.Mesh[1])
	}
	if p.LocalMemKB != 0 {
		fmt.Fprintf(&b, "/lm%dK", p.LocalMemKB)
	}
	return b.String()
}

// Key is a stable identity for checkpoint/resume: it fingerprints the
// hardware configuration, so any knob change yields a different key while
// cosmetic differences (config name) do not.
func (p *Point) Key() string {
	return fmt.Sprintf("%s|%v|%s|seed%d", p.Model, p.Strategy, artifact.ConfigFingerprint(&p.Config), p.Seed)
}

// BaseConfig resolves the spec's base architecture: the Table I defaults
// overlaid with the spec's partial "base" object, if any.
func (s *Spec) BaseConfig() (arch.Config, error) {
	if len(s.Base) == 0 {
		return arch.DefaultConfig(), nil
	}
	return arch.Parse(s.Base)
}

// Expand resolves the spec against a base configuration into the
// deterministic cross-product of its axes: point i is Space.Point(i), so
// the order is the Space's. Every derived configuration is validated; one
// invalid point fails the whole spec.
func (s *Spec) Expand(base arch.Config) ([]Point, error) {
	space, err := NewSpace(s, base)
	if err != nil {
		return nil, err
	}
	pts := make([]Point, space.Size())
	for i := range pts {
		if pts[i], err = space.Point(i); err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// ParseSpec decodes a sweep spec from JSON.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("dse: parsing spec: %w", err)
	}
	return &s, nil
}

// LoadSpec reads a sweep spec from a JSON file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	return ParseSpec(data)
}

// ExampleSpec returns a small documented sweep spec, the template printed
// by `cimflow-dse -example`.
func ExampleSpec() *Spec {
	return &Spec{
		Name:       "fig7-mini",
		Models:     []string{"mobilenetv2"},
		Strategies: []string{"generic", "dp"},
		MGSizes:    []int{4, 8, 16},
		FlitBytes:  []int{8, 16},
		Seed:       1,
	}
}
