package compiler

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cimflow/internal/model"
)

// WeightTiles caches the pre-tiled weight regions of one weight store. A
// region depends on the node's weights and on the macro geometry alone — the
// macro rows and the group channels — not on the strategy, the flit width or
// where the layout puts it, so every compile of the graph at that geometry
// reads one copy: the first caller tiles it, concurrent callers wait for it,
// and nobody writes it afterwards. WeightTiles is a model.WeightStore over
// the store it wraps. Safe for concurrent use.
type WeightTiles struct {
	ws     model.WeightStore
	tiles  sync.Map // tileKey -> func() ([]byte, error), a sync.OnceValues
	builds atomic.Int64
}

// tileKey names one tiled region: the graph and node, and the geometry.
type tileKey struct {
	g                         *model.Graph
	node, rows, groupChannels int
}

// NewWeightTiles returns an empty cache of the regions of ws's weights.
func NewWeightTiles(ws model.WeightStore) *WeightTiles { return &WeightTiles{ws: ws} }

// Weights returns the wrapped store's weights of a node.
func (t *WeightTiles) Weights(nodeID int) []int8 { return t.ws.Weights(nodeID) }

// Builds reports how many regions the cache has tiled. It is a test hook,
// exported because the sweep tests of internal/dse count it.
func (t *WeightTiles) Builds() int { return int(t.builds.Load()) }

// region returns node id's tiled region as c lays it out, tiling it on
// first use of the key.
func (t *WeightTiles) region(c *Compiled, id int) ([]byte, error) {
	gc := c.Cfg.GroupChannels()
	k := tileKey{c.Graph, id, c.Cfg.Unit.MacroRows, gc}
	f, ok := t.tiles.Load(k)
	if !ok {
		n := c.Graph.Node(id)
		size := int(regionBytes(c.geoms, c.Cfg, n))
		f, _ = t.tiles.LoadOrStore(k, sync.OnceValues(func() ([]byte, error) {
			t.builds.Add(1)
			return tileRegion(n, gc, size, t.ws.Weights(id))
		}))
	}
	return f.(func() ([]byte, error))()
}

// tileRegion lays a node's weights w out as its size-byte pre-tiled region:
// for an MVM node, one block per channel tile of gc channels (the last one
// may be narrower), holding every weight row cut to the tile's channels in
// row order, which is the order of the tile's row tiles that the CIM loads
// read (weightBlockOffset); for a depthwise one, w as it is. The rows are
// read once each, in order.
func tileRegion(n *model.Node, gc, size int, w []int8) ([]byte, error) {
	if len(w) != size {
		return nil, fmt.Errorf("compiler: node %s needs %d weight bytes, the store gives %d", n.Name, size, len(w))
	}
	data := make([]byte, size)
	if n.Op == model.OpDWConv {
		for i, v := range w {
			data[i] = byte(v)
		}
		return data, nil
	}
	rows := size / n.Cout
	for r := range rows {
		row := w[r*n.Cout:][:n.Cout]
		for c := 0; c < n.Cout; c += gc {
			src := row[c:min(c+gc, n.Cout)]
			dst := data[c*rows+r*len(src):][:len(src)]
			for i, v := range src {
				dst[i] = byte(v)
			}
		}
	}
	return data, nil
}
