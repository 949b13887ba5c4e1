package compiler

import (
	"fmt"
	"slices"
	"sort"

	"cimflow/internal/arch"
	"cimflow/internal/model"
	"cimflow/internal/sim"
	"cimflow/internal/tensor"
)

// globalLayout assigns the global memory map: the network input, per-node
// weight regions (pre-tiled into macro-group blocks), activation buffers
// for stage-crossing tensors, and per-core constant pools.
type globalLayout struct {
	inputAddr  int32
	inputBytes int32
	weightAddr map[int]int32 // node id -> region base
	actAddr    map[int]int32 // node id -> activation buffer base
	poolAddr   []int32       // core id -> constant pool base (-1 none)
	size       int32
}

func (l *globalLayout) alloc(n int32) int32 {
	// 64-byte alignment keeps transfers flit-aligned.
	l.size = (l.size + 63) &^ 63
	addr := l.size
	l.size += n
	return addr
}

// weightRegionBytes returns the pre-tiled weight region size of a node.
func weightRegionBytes(g *model.Graph, cfg *arch.Config, n *model.Node) int32 {
	switch n.Op {
	case model.OpConv, model.OpDense:
		gm := geometry(g, cfg, n)
		return mvmWeightRegionBytes(&gm, cfg)
	case model.OpDWConv:
		return int32(n.KH * n.KW * n.Cout)
	}
	return 0
}

// regionBytes is weightRegionBytes against a precomputed geometry map,
// avoiding the tile re-derivation on the compile and session-staging paths.
func regionBytes(geoms map[int]mvmGeom, cfg *arch.Config, n *model.Node) int32 {
	switch n.Op {
	case model.OpConv, model.OpDense:
		gm := geoms[n.ID]
		return mvmWeightRegionBytes(&gm, cfg)
	case model.OpDWConv:
		return int32(n.KH * n.KW * n.Cout)
	}
	return 0
}

// mvmWeightRegionBytes sizes the pre-tiled weight region of an MVM node
// from its mapping geometry.
func mvmWeightRegionBytes(gm *mvmGeom, cfg *arch.Config) int32 {
	var total int32
	gc := cfg.GroupChannels()
	cout := gm.node.Cout
	for ct := 0; ct < gm.chanTiles; ct++ {
		chans := gc
		if (ct+1)*gc > cout {
			chans = cout - ct*gc
		}
		for _, t := range gm.tiles {
			total += int32(t.Rows * chans)
		}
	}
	return total
}

// weightBlockOffset returns the offset of the (chanTile, rowTile) block
// within a node's pre-tiled weight region.
func weightBlockOffset(gm *mvmGeom, gc int, ct, tile int) int32 {
	var off int32
	cout := gm.node.Cout
	chansOf := func(c int) int {
		if (c+1)*gc > cout {
			return cout - c*gc
		}
		return gc
	}
	for c := 0; c < ct; c++ {
		off += int32(gm.rows * chansOf(c))
	}
	for t := 0; t < tile; t++ {
		off += int32(gm.tiles[t].Rows * chansOf(ct))
	}
	return off
}

// buildLayout allocates the global memory map for a plan, sizing weight
// regions from the planner's precomputed geometries.
func buildLayout(g *model.Graph, cfg *arch.Config, plan *Plan, geoms map[int]mvmGeom) *globalLayout {
	l := &globalLayout{
		weightAddr: map[int]int32{},
		actAddr:    map[int]int32{},
		poolAddr:   make([]int32, cfg.NumCores()),
	}
	in := g.Nodes[0].OutShape
	l.inputBytes = int32(in.Elems())
	l.inputAddr = l.alloc(l.inputBytes)
	for _, st := range plan.Stages {
		for _, op := range st.Ops {
			if wb := regionBytes(geoms, cfg, op.Node); wb > 0 {
				l.weightAddr[op.Node.ID] = l.alloc(wb)
			}
			if op.GlobalOut == -2 {
				op.GlobalOut = int(l.alloc(int32(op.Node.OutShape.Elems())))
				l.actAddr[op.Node.ID] = int32(op.GlobalOut)
			}
		}
	}
	return l
}

// pieceOffset returns where a (replica, shard) piece lives within a node's
// activation buffer: replicas are row-major blocks, shards sub-blocks.
func pieceOffset(op *OpPlan, rep, sh int) int32 {
	out := op.Node.OutShape
	r := op.Replicas[rep]
	rows := int32(r.RowEnd - r.RowStart)
	return int32(r.RowStart)*int32(out.W*out.C) +
		rows*int32(out.W)*int32(r.Shards[sh].ChanStart)
}

// Compiled is the result of compilation: per-core programs plus everything
// needed to initialize and interpret a simulation.
type Compiled struct {
	Cfg      *arch.Config
	Graph    *model.Graph
	Plan     *Plan
	Programs []sim.Program

	layout   *globalLayout
	geoms    map[int]mvmGeom
	poolSegs []sim.GlobalSegment
	// OutputNode is the graph node whose activation buffer holds the
	// network result.
	OutputNode int
}

// GlobalBytes returns the global memory footprint the simulation needs.
func (c *Compiled) GlobalBytes() int { return int(c.layout.size) }

// InstructionCount sums all program lengths.
func (c *Compiled) InstructionCount() int {
	var n int
	for _, p := range c.Programs {
		n += len(p.Code)
	}
	return n
}

// InputSegment builds the input-tensor segment for one inference.
func (c *Compiled) InputSegment(input tensor.Tensor) (sim.GlobalSegment, error) {
	addr, err := c.InputAddr(input)
	if err != nil {
		return sim.GlobalSegment{}, err
	}
	return sim.GlobalSegment{Addr: addr, Data: int8ToBytes(input.Data)}, nil
}

// InputAddr returns the global-memory address the input tensor is staged
// at, after checking that input has as many elements as the graph's input.
func (c *Compiled) InputAddr(input tensor.Tensor) (int, error) {
	in := c.Graph.Nodes[0].OutShape
	if input.Len() != in.Elems() {
		return 0, fmt.Errorf("compiler: input has %d elements, graph needs %d", input.Len(), in.Elems())
	}
	return int(c.layout.inputAddr), nil
}

// StaticSegments returns the compiled model's static global memory, what
// does not change between inferences and what sim.Chip.MapGlobal maps:
// every node's weight region, pre-tiled into the CIM macro-group layout, and
// the per-core constant pools, ascending. The weight regions are tiles' own
// bytes, shared with every other caller of the same tiles and geometry;
// nothing may write them. Global memory outside the segments is the scratch
// ranges (ScratchRanges), zero as a run starts.
func (c *Compiled) StaticSegments(tiles *WeightTiles) ([]sim.GlobalSegment, error) {
	segs := make([]sim.GlobalSegment, 0, len(c.layout.weightAddr)+len(c.poolSegs))
	for id, base := range c.layout.weightAddr {
		data, err := tiles.region(c, id)
		if err != nil {
			return nil, err
		}
		segs = append(segs, sim.GlobalSegment{Addr: int(base), Data: data})
	}
	segs = append(segs, c.poolSegs...)
	slices.SortFunc(segs, func(a, b sim.GlobalSegment) int { return a.Addr - b.Addr })
	return segs, nil
}

// StaticInit returns StaticSegments of a cache of its own over ws, highest
// address first.
func (c *Compiled) StaticInit(ws model.WeightStore) ([]sim.GlobalSegment, error) {
	segs, err := c.StaticSegments(NewWeightTiles(ws))
	slices.Reverse(segs)
	return segs, err
}

// staticSpans returns the [lo, hi) byte ranges of the weight regions and
// constant pools, ascending.
func (c *Compiled) staticSpans() [][2]int {
	var spans [][2]int
	for id, base := range c.layout.weightAddr {
		n := c.Graph.Node(id)
		spans = append(spans, [2]int{int(base), int(base) + int(regionBytes(c.geoms, c.Cfg, n))})
	}
	for _, s := range c.poolSegs {
		spans = append(spans, [2]int{s.Addr, s.Addr + len(s.Data)})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	return spans
}

// ScratchRanges returns the global-memory byte ranges, as (addr, size)
// pairs, that the static segments leave zero: the input region, activation
// buffers and alignment padding. Zeroing them (plus rewriting the input)
// restores a reused chip's global memory to what it maps byte for byte,
// which is what makes pooled-chip inference results identical to fresh-chip
// runs.
func (c *Compiled) ScratchRanges() [][2]int {
	var out [][2]int
	pos := 0
	for _, s := range c.staticSpans() {
		if s[0] > pos {
			out = append(out, [2]int{pos, s[0] - pos})
		}
		pos = max(pos, s[1])
	}
	if total := int(c.layout.size); pos < total {
		out = append(out, [2]int{pos, total - pos})
	}
	return out
}

// ReadOutput reassembles the network output tensor from the piece-structured
// activation buffer in global memory.
func (c *Compiled) ReadOutput(read func(addr, size int) ([]byte, error)) (tensor.Tensor, error) {
	op := c.Plan.opPlanByNode(c.OutputNode)
	if op == nil || op.GlobalOut < 0 {
		return tensor.Tensor{}, fmt.Errorf("compiler: output node %d has no global buffer", c.OutputNode)
	}
	out := op.Node.OutShape
	t := tensor.New(out.H, out.W, out.C)
	base := op.GlobalOut
	for ri, rep := range op.Replicas {
		for si, sh := range rep.Shards {
			rows := rep.RowEnd - rep.RowStart
			data, err := read(base+int(pieceOffset(op, ri, si)), rows*out.W*sh.ChanCount)
			if err != nil {
				return tensor.Tensor{}, err
			}
			pos := 0
			for y := rep.RowStart; y < rep.RowEnd; y++ {
				for x := 0; x < out.W; x++ {
					for ch := 0; ch < sh.ChanCount; ch++ {
						t.Set(y, x, sh.ChanStart+ch, int8(data[pos]))
						pos++
					}
				}
			}
		}
	}
	return t, nil
}

func int8ToBytes(v []int8) []byte {
	out := make([]byte, len(v))
	for i, x := range v {
		out[i] = byte(x)
	}
	return out
}
