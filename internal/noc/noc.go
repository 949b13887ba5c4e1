// Package noc models the chip's mesh network-on-chip: XY dimension-ordered
// routing, flit-level link serialization with contention, and per-hop
// energy. It substitutes for the Noxim cost model the paper uses: hop
// latency, serialization by configurable flit width — the
// bandwidth knob of Fig. 6/7 — and link congestion are all represented.
//
// The model is conservative-deterministic: transfers must be issued in
// non-decreasing departure-time order (the simulator's scheduler guarantees
// this), and each directed link keeps a next-free cycle so overlapping
// transfers queue behind each other.
package noc

import (
	"fmt"

	"cimflow/internal/arch"
)

// Mesh is the NoC state for one simulation.
type Mesh struct {
	rows, cols int
	flitBytes  int
	hopLat     int64
	hopPJ      float64 // energy per byte per hop

	// linkFree[l] is the first cycle at which directed link l is idle.
	linkFree []int64
	// memPortFree serializes the global-memory port.
	memPortFree int64
	memBW       int // bytes per cycle
	memLat      int64
	memPJ       float64

	// routeBuf is the reusable scratch the XY router writes link sequences
	// into: a Mesh belongs to one single-threaded chip simulation, so one
	// buffer keeps the per-message hot path allocation-free.
	routeBuf []int

	// Accounting.
	TotalBytes    int64   // payload bytes injected
	TotalByteHops int64   // bytes x hops traversed
	TotalEnergyPJ float64 // NoC + global memory access energy
	MemBytes      int64   // bytes to/from global memory
}

// New builds a mesh NoC from the architecture description.
func New(cfg *arch.Config) *Mesh {
	r, c := cfg.Chip.CoreRows, cfg.Chip.CoreCols
	return &Mesh{
		rows:      r,
		cols:      c,
		flitBytes: cfg.Chip.NoCFlitBytes,
		hopLat:    int64(cfg.Chip.NoCHopLatency),
		hopPJ:     cfg.Energy.NoCHopPJPerByte,
		// 4 directions plus a local/ejection link per router, plus one
		// column of memory-port links on the west edge.
		linkFree: make([]int64, r*c*5+r),
		memBW:    cfg.Chip.GlobalMemBandwidth,
		memLat:   int64(cfg.Chip.GlobalMemLatency),
		memPJ:    cfg.Energy.GlobalMemPJPerByte,
	}
}

// Reset clears all link reservations, the memory-port schedule and the
// traffic accounting, returning the mesh to its freshly-built state. The
// simulator's chip pool calls it between inferences so a reused chip sees
// an idle network.
func (m *Mesh) Reset() {
	clear(m.linkFree)
	m.memPortFree = 0
	m.TotalBytes = 0
	m.TotalByteHops = 0
	m.TotalEnergyPJ = 0
	m.MemBytes = 0
}

// coord converts a core id to mesh coordinates.
func (m *Mesh) coord(core int) (row, col int) { return core / m.cols, core % m.cols }

// Hops returns the XY hop count between two cores.
func (m *Mesh) Hops(src, dst int) int {
	r1, c1 := m.coord(src)
	r2, c2 := m.coord(dst)
	return abs(r1-r2) + abs(c1-c2)
}

// Flits returns the number of flits a payload occupies, including one
// header flit.
func (m *Mesh) Flits(bytes int) int64 {
	return 1 + int64((bytes+m.flitBytes-1)/m.flitBytes)
}

// link ids: per router, 0=east 1=west 2=north 3=south 4=local ejection.
func (m *Mesh) linkID(row, col, dir int) int { return (row*m.cols+col)*5 + dir }

// route returns the sequence of directed links from src to dst using XY
// routing (X first, then Y), ending with the destination's ejection link.
func (m *Mesh) route(src, dst int) []int {
	r1, c1 := m.coord(src)
	r2, c2 := m.coord(dst)
	links := m.routeBuf[:0]
	for c1 < c2 {
		links = append(links, m.linkID(r1, c1, 0))
		c1++
	}
	for c1 > c2 {
		links = append(links, m.linkID(r1, c1, 1))
		c1--
	}
	for r1 < r2 {
		links = append(links, m.linkID(r1, c1, 3))
		r1++
	}
	for r1 > r2 {
		links = append(links, m.linkID(r1, c1, 2))
		r1--
	}
	links = append(links, m.linkID(r2, c2, 4))
	m.routeBuf = links
	return links
}

// Transfer models a core-to-core message of the given payload departing at
// the given cycle; it returns the cycle the tail flit arrives at the
// destination. Wormhole-style: the head advances one hop per hopLat cycles,
// each link is then occupied for the serialization time of all flits, and a
// busy link stalls the message.
func (m *Mesh) Transfer(src, dst int, bytes int, depart int64) int64 {
	if bytes <= 0 {
		return depart
	}
	m.TotalBytes += int64(bytes)
	// Link energy is per flit: partially-filled wide flits still toggle the
	// full link width, so wider links cost more for fragmented traffic.
	flits := m.Flits(bytes)
	flitEnergy := float64(flits*int64(m.flitBytes)) * m.hopPJ
	if src == dst {
		// Loopback through the local port: serialization only.
		m.TotalEnergyPJ += flitEnergy
		m.TotalByteHops += int64(bytes)
		return depart + flits
	}
	t := depart
	links := m.route(src, dst)
	for _, l := range links {
		t += m.hopLat
		if m.linkFree[l] > t {
			t = m.linkFree[l]
		}
		m.linkFree[l] = t + flits
	}
	hops := int64(len(links))
	m.TotalByteHops += int64(bytes) * hops
	m.TotalEnergyPJ += flitEnergy * float64(hops)
	return t + flits
}

// MemAccess models a global-memory read or write of the given size by a
// core, departing at the given cycle; it returns the completion cycle. The
// path crosses the west-edge links of the core's row and then the shared
// memory port, whose bandwidth serializes concurrent accesses.
func (m *Mesh) MemAccess(core int, bytes int, depart int64) int64 {
	if bytes <= 0 {
		return depart
	}
	r, c := m.coord(core)
	flits := m.Flits(bytes)
	t := depart
	for col := c; col >= 0; col-- {
		var l int
		if col > 0 {
			l = m.linkID(r, col, 1)
		} else {
			l = m.rows*m.cols*5 + r // memory-port link of this row
		}
		t += m.hopLat
		if m.linkFree[l] > t {
			t = m.linkFree[l]
		}
		m.linkFree[l] = t + flits
	}
	// Shared memory port: fixed latency plus bandwidth serialization.
	t += m.memLat
	if m.memPortFree > t {
		t = m.memPortFree
	}
	serialize := int64((bytes + m.memBW - 1) / m.memBW)
	m.memPortFree = t + serialize
	t += serialize

	hops := int64(c + 1)
	m.TotalBytes += int64(bytes)
	m.MemBytes += int64(bytes)
	m.TotalByteHops += int64(bytes) * hops
	m.TotalEnergyPJ += float64(flits*int64(m.flitBytes))*float64(hops)*m.hopPJ +
		float64(bytes)*m.memPJ
	return t
}

// String summarizes traffic for reports.
func (m *Mesh) String() string {
	return fmt.Sprintf("noc: %d bytes injected, %d byte-hops, %.1f nJ",
		m.TotalBytes, m.TotalByteHops, m.TotalEnergyPJ/1e3)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
