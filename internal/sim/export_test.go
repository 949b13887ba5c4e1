package sim

// ResetFootprint is what the next Reset will clear, for the benchmark in the
// external test package: the dirty pages and macro groups summed over the
// cores, the lanes they are cleared in, the bytes that makes (accumulators
// and gather buffers included), and — for comparison — the local-memory
// bytes per lane a single [first, last] dirty window per core would span,
// and those the chip backs per lane.
type ResetFootprint struct {
	Pages, Groups, Lanes     int
	Bytes, HullBytes, Backed int64
}

func (ch *Chip) ResetFootprint() ResetFootprint {
	f := ResetFootprint{Lanes: ch.dirtyLanes}
	for _, c := range ch.cores {
		f.Backed += int64(len(c.local))
		var perLane int64
		first, last := -1, -1
		for pg := 0; pg<<dirtyShift < int(c.localSize); pg++ {
			if c.dirty[pg>>6]>>(pg&63)&1 != 0 {
				f.Pages++
				perLane += int64(min((pg+1)<<dirtyShift, int(c.localSize)) - pg<<dirtyShift)
				if first < 0 {
					first = pg
				}
				last = pg
			}
		}
		if first >= 0 {
			f.HullBytes += int64(min((last+1)<<dirtyShift, int(c.localSize)) - first<<dirtyShift)
		}
		for g, m := range c.mg {
			if c.mgDirty>>g&1 != 0 {
				f.Groups++
				perLane += int64(len(m))
			}
		}
		perLane += int64(4*len(c.cimAcc) + len(c.gather))
		f.Bytes += perLane * int64(ch.dirtyLanes)
	}
	return f
}

// group returns lane 0's macro group g, backing it as a first CIM_LOAD
// would, for the white-box tests that write weights in directly.
func (c *core) group(g int) []byte {
	if c.mg[g] == nil {
		c.mg[g] = make([]byte, int(c.macroRows)*c.groupChans)
	}
	return c.mg[g]
}

// mem returns lane 0's local memory of c up to the first page boundary (or
// its end), backed as a window there would be, for the white-box tests that
// write operands in and read results out directly: addresses below the hole
// index the backing as they are.
func (c *core) mem() []byte {
	n := min(1<<dirtyShift, c.localSize)
	if _, err := c.localRange(0, n); err != nil {
		panic(err)
	}
	return c.local[:n]
}
