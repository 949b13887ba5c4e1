package sim

// ResetFootprint is what the next Reset will clear, for the benchmark in the
// external test package: the dirty pages and macro groups summed over the
// cores, the lanes the pages are cleared in, the bytes that makes (pages,
// accumulators and gather buffers in every lane, the lane-shared groups
// once), and — for comparison — the local-memory bytes per lane a single
// [first, last] dirty window per core would span, those the chip backs per
// lane, and the distinct macro-group bytes it backs over all lanes.
type ResetFootprint struct {
	Pages, Groups, Lanes                 int
	Bytes, HullBytes, Backed, GroupBytes int64
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
				f.Bytes += int64(len(m))
			}
		}
		perLane += int64(4*len(c.cimAcc) + len(c.gather))
		f.Bytes += perLane * int64(ch.dirtyLanes)
		for l := range c.images {
			for g, m := range c.images[l].mg {
				if l == 0 || !sameBuffer(m, c.mg[g]) {
					f.GroupBytes += int64(len(m))
				}
			}
		}
	}
	return f
}

// whole maps all of c's memory, as loading a program with no map does, for
// the white-box tests that write operands and weights in directly, before or
// after they load one.
func (c *core) whole() { c.mapMemory(MemMap{Groups: uint32(uint64(1)<<len(c.mg) - 1)}) }

// group returns lane 0's macro group g of the whole-core map.
func (c *core) group(g int) []byte {
	c.whole()
	return c.mg[g]
}

// mem returns lane 0's local memory of c up to the first page boundary (or
// its end) under the whole-core map, where addresses index the backing as
// they are.
func (c *core) mem() []byte {
	c.whole()
	return c.local[:min(1<<dirtyShift, c.localSize)]
}
