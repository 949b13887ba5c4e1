package compiler

import (
	"fmt"
	"sort"

	"cimflow/internal/arch"
	"cimflow/internal/isa"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

// Image is the serialization-friendly snapshot of a Compiled artifact:
// every field a codec needs, expressed through exported plain data (node
// ids instead of node pointers, raw instruction streams instead of
// predecoded micro-ops). The derived state a Compiled carries — the MVM
// geometries, the plan's node indexes and the per-core decoded programs —
// is deliberately absent: FromImage recomputes all of it, so decoded state
// is never trusted from an external medium.
//
// Image <-> Compiled conversion is exact: FromImage(c.Image()) produces an
// artifact that simulates bit-identically to c, and Image() of that
// artifact is structurally identical to the original image.
type Image struct {
	Cfg   *arch.Config
	Graph *model.Graph

	// Plan, flattened to exported data.
	Strategy           Strategy
	EstimatedCycles    float64
	ClosureCapHit      bool
	ClosuresEnumerated int
	Stages             []StageImage

	// Programs holds each core's final (post-optimization) instruction
	// stream in core-id order, as raw 32-bit ISA words — the architectural
	// encoding, not Go structs, so an image is exactly what a binary would
	// carry — and Maps its memory map. FromImage takes a map's PoolEnd from
	// the length of the core's pool segment, not from Maps.
	Programs [][]uint32
	Maps     []sim.MemMap

	// Global-memory layout.
	InputAddr  int32
	InputBytes int32
	WeightAddr []AddrEntry // sorted by node id
	ActAddr    []AddrEntry // sorted by node id
	PoolAddr   []int32     // core id -> constant pool base (-1 none)
	GlobalSize int32

	// PoolSegs are the per-core constant-pool segments in emission order.
	PoolSegs []SegImage

	OutputNode int
}

// StageImage is one execution stage of the plan.
type StageImage struct {
	ID  int
	Ops []OpImage
}

// OpImage is the placement of one graph node, referencing it by id.
type OpImage struct {
	Node      int
	Replicas  []Replica
	GlobalOut int
	Passes    int
}

// AddrEntry maps a node id to a global-memory base address.
type AddrEntry struct {
	Node int
	Addr int32
}

// SegImage is one write-once global-memory segment.
type SegImage struct {
	Addr int32
	Data []byte
}

// Image snapshots the compiled artifact into its exported serialization
// form. The snapshot shares backing storage (graph nodes, pool data) with
// the Compiled; treat it as read-only. Encoding a program the compiler
// itself produced cannot fail, so the error return only fires on
// hand-built instruction streams with out-of-range fields or no memory map.
func (c *Compiled) Image() (*Image, error) {
	img := &Image{
		Cfg:                c.Cfg,
		Graph:              c.Graph,
		Strategy:           c.Plan.Strategy,
		EstimatedCycles:    c.Plan.EstimatedCycles,
		ClosureCapHit:      c.Plan.ClosureCapHit,
		ClosuresEnumerated: c.Plan.ClosuresEnumerated,
		InputAddr:          c.layout.inputAddr,
		InputBytes:         c.layout.inputBytes,
		GlobalSize:         c.layout.size,
		PoolAddr:           c.layout.poolAddr,
		OutputNode:         c.OutputNode,
	}
	for _, st := range c.Plan.Stages {
		si := StageImage{ID: st.ID}
		for _, op := range st.Ops {
			si.Ops = append(si.Ops, OpImage{
				Node:      op.Node.ID,
				Replicas:  op.Replicas,
				GlobalOut: op.GlobalOut,
				Passes:    op.Passes,
			})
		}
		img.Stages = append(img.Stages, si)
	}
	for _, p := range c.Programs {
		words, err := isa.EncodeProgram(p.Code)
		if err != nil {
			return nil, fmt.Errorf("compiler: encoding core %d: %w", p.Core, err)
		}
		if p.Map == nil {
			return nil, fmt.Errorf("compiler: core %d has no memory map", p.Core)
		}
		img.Programs = append(img.Programs, words)
		img.Maps = append(img.Maps, *p.Map)
	}
	img.WeightAddr = sortedAddrs(c.layout.weightAddr)
	img.ActAddr = sortedAddrs(c.layout.actAddr)
	for _, s := range c.poolSegs {
		img.PoolSegs = append(img.PoolSegs, SegImage{Addr: int32(s.Addr), Data: s.Data})
	}
	return img, nil
}

func sortedAddrs(m map[int]int32) []AddrEntry {
	out := make([]AddrEntry, 0, len(m))
	for id, addr := range m {
		out = append(out, AddrEntry{Node: id, Addr: addr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// FromImage rebuilds a Compiled artifact from its serialization snapshot,
// re-deriving everything an image does not carry: the configuration and
// graph are re-validated, node references are resolved against the decoded
// graph, the MVM geometries are recomputed from first principles, the
// plan's lookup indexes are rebuilt, and every instruction stream is
// re-predecoded through isa.Predecode — exactly the state a fresh compile
// would have produced, so nothing executable is trusted from the medium.
func FromImage(img *Image) (*Compiled, error) {
	if img.Cfg == nil || img.Graph == nil {
		return nil, fmt.Errorf("compiler: image missing config or graph")
	}
	cfg, g := img.Cfg, img.Graph
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: image config: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: image graph: %w", err)
	}
	numCores := cfg.NumCores()
	if len(img.Programs) != numCores || len(img.Maps) != numCores {
		return nil, fmt.Errorf("compiler: image has %d programs and %d memory maps for %d cores", len(img.Programs), len(img.Maps), numCores)
	}
	if len(img.PoolAddr) != numCores {
		return nil, fmt.Errorf("compiler: image has %d pool addresses for %d cores", len(img.PoolAddr), numCores)
	}
	nodeInRange := func(id int) bool { return id >= 0 && id < len(g.Nodes) }

	plan := &Plan{
		Strategy:           img.Strategy,
		EstimatedCycles:    img.EstimatedCycles,
		ClosureCapHit:      img.ClosureCapHit,
		ClosuresEnumerated: img.ClosuresEnumerated,
	}
	for _, si := range img.Stages {
		st := &Stage{ID: si.ID}
		for _, oi := range si.Ops {
			if !nodeInRange(oi.Node) {
				return nil, fmt.Errorf("compiler: image plan references node %d of %d", oi.Node, len(g.Nodes))
			}
			st.Ops = append(st.Ops, &OpPlan{
				Node:      g.Nodes[oi.Node],
				Replicas:  oi.Replicas,
				GlobalOut: oi.GlobalOut,
				Passes:    oi.Passes,
			})
		}
		plan.Stages = append(plan.Stages, st)
	}
	plan.buildIndex()

	layout := &globalLayout{
		inputAddr:  img.InputAddr,
		inputBytes: img.InputBytes,
		weightAddr: map[int]int32{},
		actAddr:    map[int]int32{},
		poolAddr:   img.PoolAddr,
		size:       img.GlobalSize,
	}
	for _, e := range img.WeightAddr {
		if !nodeInRange(e.Node) {
			return nil, fmt.Errorf("compiler: image weight region references node %d of %d", e.Node, len(g.Nodes))
		}
		layout.weightAddr[e.Node] = e.Addr
	}
	for _, e := range img.ActAddr {
		if !nodeInRange(e.Node) {
			return nil, fmt.Errorf("compiler: image activation buffer references node %d of %d", e.Node, len(g.Nodes))
		}
		layout.actAddr[e.Node] = e.Addr
	}

	// Geometries are a pure function of (graph, config, node): recompute
	// them for every MVM node instead of deserializing derived state. The
	// tile enumeration inside geometry scales with the node's weight-matrix
	// rows, so bound them first — an image carrying a node no real macro
	// array could hold is corrupt, not merely large.
	const maxMVMRows = 1 << 24
	geoms := map[int]mvmGeom{}
	for _, n := range g.Nodes {
		if n.Op == model.OpConv || n.Op == model.OpDense {
			var rows int
			if n.Op == model.OpConv {
				rows = n.KH * n.KW * g.InShape(n).C
			} else {
				rows = g.InShape(n).Elems()
			}
			if rows <= 0 || rows > maxMVMRows {
				return nil, fmt.Errorf("compiler: image node %d has %d weight rows", n.ID, rows)
			}
			geoms[n.ID] = geometry(g, cfg, n)
		}
	}

	c := &Compiled{
		Cfg:        cfg,
		Graph:      g,
		Plan:       plan,
		layout:     layout,
		geoms:      geoms,
		OutputNode: img.OutputNode,
	}
	if !nodeInRange(img.OutputNode) {
		return nil, fmt.Errorf("compiler: image output node %d of %d", img.OutputNode, len(g.Nodes))
	}
	poolEnd := map[int32]int32{} // pool segment address -> length
	for _, s := range img.PoolSegs {
		if s.Addr < 0 || int(s.Addr)+len(s.Data) > int(layout.size) {
			return nil, fmt.Errorf("compiler: image pool segment [%d, %d) exceeds global size %d",
				s.Addr, int(s.Addr)+len(s.Data), layout.size)
		}
		poolEnd[s.Addr] = int32(len(s.Data))
		c.poolSegs = append(c.poolSegs, sim.GlobalSegment{Addr: int(s.Addr), Data: s.Data})
	}
	for id, words := range img.Programs {
		if size := len(words) * 4; size > cfg.Core.InstMemBytes {
			return nil, fmt.Errorf("compiler: image core %d program is %d bytes, instruction memory holds %d",
				id, size, cfg.Core.InstMemBytes)
		}
		code, dec, err := isa.PredecodeProgram(words)
		if err != nil {
			return nil, fmt.Errorf("compiler: image core %d: %w", id, err)
		}
		isa.Fuse(dec)
		m := img.Maps[id]
		end, ok := poolEnd[img.PoolAddr[id]]
		if !ok && img.PoolAddr[id] >= 0 {
			return nil, fmt.Errorf("compiler: image core %d: no pool segment at %d", id, img.PoolAddr[id])
		}
		m.PoolEnd = end
		if err := m.Check(cfg); err != nil {
			return nil, fmt.Errorf("compiler: image core %d: %w", id, err)
		}
		c.Programs = append(c.Programs, sim.Program{Core: id, Code: code, Decoded: dec, Map: &m})
	}
	return c, nil
}
