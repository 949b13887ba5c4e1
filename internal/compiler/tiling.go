package compiler

import (
	"cimflow/internal/arch"
	"cimflow/internal/model"
)

// RowTile is one resident slice of an operator's im2col reduction
// dimension, sized to fit a macro group's rows and aligned so the input
// slice is expressible as the CIM unit's equal-segment gather. This is the
// result of the OP-level virtual-to-physical dimension matching: the
// software reduction order (kh, kw, cin) is cut into hardware tiles of at
// most MacroRows rows.
type RowTile struct {
	Seg0     int // first kh segment the tile reads
	SegCount int // number of kh segments gathered
	Offset   int // byte offset within the first segment
	Rows     int // tile height in rows (bytes of input)
}

// rowTiles cuts a reduction of segCount segments of segBytes each into
// macro-group-sized tiles. Convolutions staged per output row have
// segCount = KH and segBytes = KW*Cin; dense layers have a single segment
// holding the whole flattened input.
func rowTiles(segCount, segBytes, macroRows int) []RowTile {
	var tiles []RowTile
	if segBytes <= macroRows {
		// Whole segments per tile.
		per := macroRows / segBytes
		for s := 0; s < segCount; s += per {
			n := per
			if s+n > segCount {
				n = segCount - s
			}
			tiles = append(tiles, RowTile{Seg0: s, SegCount: n, Rows: n * segBytes})
		}
		return tiles
	}
	// Segments split into multiple tiles.
	for s := 0; s < segCount; s++ {
		for off := 0; off < segBytes; off += macroRows {
			rows := macroRows
			if off+rows > segBytes {
				rows = segBytes - off
			}
			tiles = append(tiles, RowTile{Seg0: s, SegCount: 1, Offset: off, Rows: rows})
		}
	}
	return tiles
}

// mvmGeom is the physical-mapping geometry of one MVM operator on a given
// architecture.
type mvmGeom struct {
	node      *model.Node
	rows      int // total reduction rows
	segBytes  int // kw*cin (conv) or rows (dense)
	segCount  int // kh (conv) or 1 (dense)
	tiles     []RowTile
	chanTiles int // ceil(Cout / groupChans)
	// minCores is the fewest cores that hold the op resident, or one core
	// per channel tile when its row tiles alone exceed a core's groups.
	minCores int
}

// geometry computes the CIM mapping of an MVM node (conv or dense).
func geometry(g *model.Graph, cfg *arch.Config, n *model.Node) mvmGeom {
	in := g.InShape(n)
	gm := mvmGeom{node: n}
	switch n.Op {
	case model.OpConv:
		gm.segCount = n.KH
		gm.segBytes = n.KW * in.C
	case model.OpDense:
		gm.segCount = 1
		gm.segBytes = in.Elems()
	default:
		return gm
	}
	gm.rows = gm.segCount * gm.segBytes
	gm.tiles = rowTiles(gm.segCount, gm.segBytes, cfg.Unit.MacroRows)
	gc := cfg.GroupChannels()
	gm.chanTiles = (n.Cout + gc - 1) / gc
	gm.minCores = gm.chanTiles
	if mg, rt := cfg.Core.NumMacroGroups, len(gm.tiles); rt <= mg {
		perCore := mg / rt
		gm.minCores = (gm.chanTiles + perCore - 1) / perCore
	}
	return gm
}

// fit is the one rule for what a core holds. Spreading the op's channel
// tiles over c cores of mg macro groups leaves each core at most nct of
// them; fit returns the weight-swap passes that shard needs (1 = resident)
// or the *ErrInfeasible that says why it does not fit.
//   - A shard is resident when its nct x rt tiles fit the groups.
//   - Otherwise a dense op swaps: for each channel tile it reloads its row
//     tiles mg at a time, so passes = nct x ceil(rt/mg).
//   - A conv swaps only with one channel tile of single-segment row tiles,
//     revisiting each chunk of output rows in ceil(rt/mg) passes. A
//     resident conv that overflows the groups, or a multi-pass conv holding
//     more than one channel tile, does not fit.
func (gm *mvmGeom) fit(c, mg int) (int, error) {
	nct := (gm.chanTiles + c - 1) / c
	rt := len(gm.tiles)
	swaps := (rt + mg - 1) / mg
	switch {
	case nct*rt <= mg:
		return 1, nil
	case gm.node.Op == model.OpDense:
		return nct * swaps, nil
	case rt <= mg || gm.tiles[0].SegCount > 1:
		return 0, &ErrInfeasible{Node: gm.node.Name, Resource: "macro groups", Need: nct * rt, Have: mg}
	case nct > 1:
		return 0, &ErrInfeasible{Node: gm.node.Name, Resource: "cores", Need: gm.chanTiles, Have: c}
	}
	return swaps, nil
}

// shardChans splits cout channels across n cores in groupChans-aligned
// slices, returning each shard's (start, count).
func shardChans(cout, groupChans, n int) [][2]int {
	ct := (cout + groupChans - 1) / groupChans
	out := make([][2]int, 0, n)
	base, rem := ct/n, ct%n
	start := 0
	for i := 0; i < n; i++ {
		tiles := base
		if i < rem {
			tiles++
		}
		if tiles == 0 {
			continue
		}
		chans := tiles * groupChans
		if start+chans > cout {
			chans = cout - start
		}
		out = append(out, [2]int{start, chans})
		start += chans
	}
	return out
}

// splitRows partitions h output rows into n near-equal contiguous ranges.
func splitRows(h, n int) [][2]int {
	if n > h {
		n = h
	}
	out := make([][2]int, 0, n)
	base, rem := h/n, h%n
	start := 0
	for i := 0; i < n; i++ {
		rows := base
		if i < rem {
			rows++
		}
		out = append(out, [2]int{start, start + rows})
		start += rows
	}
	return out
}
