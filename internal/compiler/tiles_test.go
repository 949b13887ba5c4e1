package compiler

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"cimflow/internal/arch"
	"cimflow/internal/model"
	"cimflow/internal/sim"
)

// referenceImage is global memory as a run starts from it, built as one
// GlobalBytes()-long buffer: every node's weights tiled into its region by
// the plain loop below, the constant pools copied in, zeros elsewhere. It is
// the oracle the shared tiles are held to.
func referenceImage(c *Compiled, ws model.WeightStore) []byte {
	img := make([]byte, c.GlobalBytes())
	gc := c.Cfg.GroupChannels()
	for id, base := range c.layout.weightAddr {
		n := c.Graph.Node(id)
		w := ws.Weights(id)
		data := img[base:][:regionBytes(c.geoms, c.Cfg, n)]
		switch n.Op {
		case model.OpConv, model.OpDense:
			gm := c.geoms[id]
			pos := 0
			for ct := 0; ct < gm.chanTiles; ct++ {
				chans := gc
				if (ct+1)*gc > n.Cout {
					chans = n.Cout - ct*gc
				}
				rowBase := 0
				for _, t := range gm.tiles {
					for r := 0; r < t.Rows; r++ {
						for i := 0; i < chans; i++ {
							data[pos] = byte(w[(rowBase+r)*n.Cout+ct*gc+i])
							pos++
						}
					}
					rowBase += t.Rows
				}
			}
		case model.OpDWConv:
			for i, v := range w {
				data[i] = byte(v)
			}
		}
	}
	for _, s := range c.poolSegs {
		copy(img[s.Addr:], s.Data)
	}
	return img
}

// TestTilesMatchReferenceImage: for every zoo model (the tiny ones and
// mobilenetv2 under -short or -race) x 3 strategies x MG sizes 4, 8 and 16,
// with one tile cache per model, a two-lane chip mapped from the shared
// tiles reads in every lane, across all of global memory, byte for byte what
// the reference image holds. One chip per model maps every layout in turn,
// retargeted when the MG size changes. The cache tiles each weighted node
// once per MG size.
func TestTilesMatchReferenceImage(t *testing.T) {
	models := model.ZooNames()
	if testing.Short() || raceEnabled {
		models = []string{"tinycnn", "tinymlp", "tinyresnet", "tinymobile", "tinyse", "mobilenetv2"}
	}
	// vgg19's tiles at three MG sizes and its reference image are some
	// 600 MB live: collect before the heap doubles it.
	defer debug.SetGCPercent(debug.SetGCPercent(25))
	def := arch.DefaultConfig()
	strategies := []Strategy{StrategyGeneric, StrategyDuplication, StrategyDP}
	for _, name := range models {
		g := model.Zoo(name)
		ws := model.NewSeededWeights(g, 1)
		tiles := NewWeightTiles(ws)
		var ch *sim.Chip
		var chCfg arch.Config
		keys := 0
		for _, mg := range []int{4, 8, 16} {
			cfg := def.WithMacrosPerGroup(mg)
			weighted := map[int]bool{}
			for _, strat := range strategies {
				label := fmt.Sprintf("%s/%v/mg%d", name, strat, mg)
				c, err := Compile(g, &cfg, Options{Strategy: strat})
				var inf *ErrInfeasible
				if errors.As(err, &inf) {
					t.Logf("%s: %v", label, err)
					continue
				} else if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for id := range c.layout.weightAddr {
					weighted[id] = true
				}
				segs, err := c.StaticSegments(tiles)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if ch == nil {
					ch, err = sim.NewChip(&cfg, sim.WithLanes(2))
				} else if chCfg != cfg {
					err = ch.Retarget(&cfg)
				}
				chCfg = cfg
				if err != nil {
					t.Fatal(err)
				}
				if err := ch.MapGlobal(c.GlobalBytes(), segs, c.ScratchRanges()); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want := referenceImage(c, ws)
				for l := range 2 {
					for a := 0; a < len(want); a += 1 << 20 {
						n := min(1<<20, len(want)-a)
						got, err := ch.ReadGlobalLane(l, a, n)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !bytes.Equal(got, want[a:a+n]) {
							i := a
							for got[i-a] == want[i] {
								i++
							}
							t.Fatalf("%s: lane %d reads global byte %d as %#x, the reference image holds %#x", label, l, i, got[i-a], want[i])
						}
					}
				}
			}
			keys += len(weighted)
		}
		if tiles.Builds() != keys {
			t.Errorf("%s: the cache tiled %d regions for %d (node, MG size) keys", name, tiles.Builds(), keys)
		}
	}
}

// badStore returns a store's weights, except for one node: none, one byte
// short or one byte long.
type badStore struct {
	model.WeightStore
	node int
	kind string
}

func (b badStore) Weights(id int) []int8 {
	w := b.WeightStore.Weights(id)
	if id != b.node {
		return w
	}
	switch b.kind {
	case "nil":
		return nil
	case "short":
		return w[:len(w)-1]
	}
	return append(w, 1)
}

// TestTileRejectsBadWeights: a store whose weights for a conv, dense or
// depthwise node are missing, short or long fails StaticSegments with an
// error naming the node, the bytes it needs and the bytes given.
func TestTileRejectsBadWeights(t *testing.T) {
	cfg := arch.DefaultConfig()
	for _, op := range []model.OpType{model.OpConv, model.OpDense, model.OpDWConv} {
		g := model.TinyMobile()
		c := compileOrDie(t, g, &cfg, StrategyGeneric)
		var n *model.Node
		for _, m := range g.Nodes {
			if _, ok := c.layout.weightAddr[m.ID]; ok && m.Op == op && n == nil {
				n = m
			}
		}
		if n == nil {
			t.Fatalf("tinymobile has no %s node with weights", op)
		}
		need := int(regionBytes(c.geoms, c.Cfg, n))
		for kind, given := range map[string]int{"nil": 0, "short": need - 1, "long": need + 1} {
			ws := badStore{model.NewSeededWeights(g, 1), n.ID, kind}
			_, err := c.StaticSegments(NewWeightTiles(ws))
			want := fmt.Sprintf("node %s needs %d weight bytes, the store gives %d", n.Name, need, given)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s %s: StaticSegments = %v, want an error containing %q", op, kind, err, want)
			}
		}
	}
}
