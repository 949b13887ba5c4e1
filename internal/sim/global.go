package sim

import (
	"fmt"
	"slices"
)

// Global memory is gsize bytes in pages of 1<<dirtyShift bytes (the last one
// may be short), each shared or private, the same in every lane. A shared
// page is never written — a store, MEM_CPY, InitGlobal* or ZeroGlobal that
// reaches one fails with ErrUnmapped — and every lane reads it through
// gview: a page inside one mapped segment (MapGlobal) is that segment's own
// bytes, read in place by every lane of every chip that maps the segment; a
// page a segment edge crosses is composed once, into the chip's edge buffer
// that all its lanes read. A private page is a slot of each lane's arena,
// memory the chip owns and a later MapGlobal or EnsureGlobal reuses, as it
// does the edge buffer. Slots go to private pages, and edge pages to the
// buffer, in address order, so a run of private pages is one span of an
// arena, as a run of edge pages is of the buffer and a run of in-place pages
// of one segment, and an access inside a run is one copy. Every arena byte
// past gsize's page or past the slots in use is zero.

// The marks of gpage: a slot (>= 0) is a private page, edge a composed one,
// and inPlace-k a page inside segment k.
const (
	edge    = -1
	inPlace = -2
)

// pageCount is the number of pages n bytes of global memory take.
func pageCount(n int) int { return (n + 1<<dirtyShift - 1) >> dirtyShift }

// MapGlobal makes the chip's global memory size bytes that read, in every
// lane, as segs — ascending and not overlapping — over zeros. A page that no
// scratch range ([addr, size) pairs) touches is shared: one that lies inside
// a segment reads the segment's own bytes in place, and one that a segment
// edge crosses is composed once into the chip's edge buffer, which all its
// lanes read. Every other page is private: each lane holds its own copy in
// its arena. A segment's bytes must not change while a chip maps them. On
// error the chip is unchanged.
func (ch *Chip) MapGlobal(size int, segs []GlobalSegment, scratch [][2]int) error {
	end := 0
	for _, s := range segs {
		if err := checkSpan("segment", s.Addr, len(s.Data), size); err != nil {
			return err
		}
		if s.Addr < end {
			return fmt.Errorf("sim: segment at %d starts before %d, the end of the one before it", s.Addr, end)
		}
		end = s.Addr + len(s.Data)
	}
	for _, r := range scratch {
		if err := checkSpan("scratch", r[0], r[1], size); err != nil {
			return err
		}
	}
	const private = 0 // a page's mark before the slots are numbered
	n := pageCount(size)
	ch.gpage = fit(ch.gpage, n)
	ch.gview = fit(ch.gview, n)
	clear(ch.gview[:cap(ch.gview)]) // no earlier mapping stays reachable
	for p := range ch.gpage {
		ch.gpage[p] = edge
	}
	for k, s := range segs {
		for p := pageCount(s.Addr); p < n && min((p+1)<<dirtyShift, size) <= s.Addr+len(s.Data); p++ {
			ch.gpage[p] = int32(inPlace - k)
			ch.gview[p] = s.Data[p<<dirtyShift-s.Addr:]
		}
	}
	for _, r := range scratch {
		for p := r[0] >> dirtyShift; r[1] > 0 && p<<dirtyShift < r[0]+r[1]; p++ {
			ch.gpage[p] = private
		}
	}
	slots, edges := 0, 0
	for p, s := range ch.gpage {
		switch s {
		case private:
			ch.gpage[p] = int32(slots)
			slots++
		case edge:
			edges++
		}
	}
	ch.gedge = fit(ch.gedge, edges<<dirtyShift)
	edges = 0
	for p, s := range ch.gpage {
		if s == edge {
			ch.gview[p] = ch.gedge[edges<<dirtyShift:]
			compose(ch.gview[p][:1<<dirtyShift], p<<dirtyShift, segs)
			edges++
		}
	}
	ch.mapped = true
	ch.layoutGlobal(size, slots)
	a0 := ch.garena[0]
	for p, s := range ch.gpage {
		if s >= 0 {
			compose(a0[int(s)<<dirtyShift:][:1<<dirtyShift], p<<dirtyShift, segs)
		}
	}
	for _, a := range ch.garena[1:] {
		copy(a, a0)
	}
	return nil
}

// compose writes into page what global memory from address a on reads as
// when it holds segs, ascending, over zeros.
func compose(page []byte, a int, segs []GlobalSegment) {
	clear(page)
	k, _ := slices.BinarySearchFunc(segs, a, func(s GlobalSegment, a int) int {
		if s.Addr+len(s.Data) <= a {
			return -1
		}
		return 1
	})
	for ; k < len(segs) && segs[k].Addr < a+len(page); k++ {
		s := segs[k]
		lo := max(s.Addr, a)
		copy(page[lo-a:], s.Data[lo-s.Addr:])
	}
}

// EnsureGlobal sizes every lane's global memory to size bytes of private
// pages, keeping its bytes, zeroing what it drops and growing with zeros; a
// chip that maps segments unmaps them first, and then reads as zeros. The
// configured global memory (16 MB by default) is modeled as the on-chip tier
// of a memory system whose capacity extends into DRAM behind the same port:
// a layout larger than the configuration still runs, with the configured
// bandwidth and latency.
func (ch *Chip) EnsureGlobal(size int) {
	size = max(size, 0)
	if ch.mapped {
		ch.gpage = ch.gpage[:0]
		ch.layoutGlobal(0, 0)
		clear(ch.gview[:cap(ch.gview)])
		ch.mapped = false
	}
	for _, a := range ch.garena {
		clear(a[min(size, len(a)):])
	}
	ch.gpage = fit(ch.gpage, pageCount(size))
	for p := range ch.gpage {
		ch.gpage[p] = int32(p)
	}
	ch.layoutGlobal(size, len(ch.gpage))
}

// layoutGlobal completes the page table gpage, whose private pages number
// slots: the size and the runs; and sizes every lane's arena to the slots,
// zeroing the ones it drops and growing from capacity, or into a larger
// arena that keeps the bytes.
func (ch *Chip) layoutGlobal(size, slots int) {
	ch.gsize = size
	ch.grun = fit(ch.grun, len(ch.gpage))
	for p := len(ch.gpage) - 1; p >= 0; p-- {
		ch.grun[p] = int32(p + 1)
		if p+1 < len(ch.gpage) && contiguous(ch.gpage[p], ch.gpage[p+1]) {
			ch.grun[p] = ch.grun[p+1]
		}
	}
	n := slots << dirtyShift
	for l, a := range ch.garena {
		clear(a[min(n, len(a)):])
		if cap(a) < n {
			a = append(make([]byte, 0, n), a...)
		}
		ch.garena[l] = a[:n]
	}
}

// contiguous reports whether pages marked s and t, one after the other, are
// one run: both private, both edge pages or both in place in one segment.
func contiguous(s, t int32) bool { return s == t || s >= 0 && t >= 0 }

// PrivateGlobalBytes is the global memory each lane holds of its own: its
// arena, the private pages' slots. It is a test hook, exported because the
// session tests of internal/core bound it.
func (ch *Chip) PrivateGlobalBytes() int { return cap(ch.garena[0]) }

// gspan returns lane l's global memory from a < gsize up to a+n or the end
// of the run of pages a lies in, whichever comes first.
func (ch *Chip) gspan(l, a, n int) []byte {
	p := a >> dirtyShift
	end := min(int(ch.grun[p])<<dirtyShift, ch.gsize, a+n)
	off := a & (1<<dirtyShift - 1)
	if s := ch.gpage[p]; s >= 0 {
		off |= int(s) << dirtyShift
		return ch.garena[l][off : off+end-a]
	}
	return ch.gview[p][off : off+end-a]
}

// shared reports whether [a, a+n), inside global memory, holds a byte of a
// shared page.
func (ch *Chip) shared(a, n int) bool {
	for p := a >> dirtyShift; n > 0 && p<<dirtyShift < a+n; p = int(ch.grun[p]) {
		if ch.gpage[p] < 0 {
			return true
		}
	}
	return false
}

// readGlobal copies lane l's global memory at a into dst.
func (ch *Chip) readGlobal(dst []byte, l, a int) {
	for len(dst) > 0 {
		n := copy(dst, ch.gspan(l, a, len(dst)))
		dst, a = dst[n:], a+n
	}
}

// writeGlobal copies src into lane l's global memory at a, on private pages.
func (ch *Chip) writeGlobal(l, a int, src []byte) {
	for len(src) > 0 {
		n := copy(ch.gspan(l, a, len(src)), src)
		src, a = src[n:], a+n
	}
}

// checkGlobal reports whether lane l is allocated and [addr, addr+size) lies
// inside global memory and, for a write, on private pages.
func (ch *Chip) checkGlobal(l, addr, size int, write bool) error {
	if l < 0 || l >= len(ch.garena) {
		return fmt.Errorf("sim: lane %d out of range [0, %d)", l, len(ch.garena))
	}
	if err := checkSpan("global", addr, size, ch.gsize); err != nil {
		return err
	}
	if write && ch.shared(addr, size) {
		return fmt.Errorf("sim: global span [%d, %d+%d) is read-only: %w", addr, addr, size, ErrUnmapped)
	}
	return nil
}

// InitGlobal writes an initialization segment into every allocated lane's
// global memory, so that uniform data (weights, a default input) is visible
// to all lanes; per-lane inputs are staged on top with InitGlobalLane.
func (ch *Chip) InitGlobal(seg GlobalSegment) error {
	if err := ch.checkGlobal(0, seg.Addr, len(seg.Data), true); err != nil {
		return err
	}
	for l := range ch.garena {
		ch.writeGlobal(l, seg.Addr, seg.Data)
	}
	return nil
}

// InitGlobalLane writes an initialization segment into lane l's global
// memory only, on top of whatever InitGlobal mirrored there.
func (ch *Chip) InitGlobalLane(l int, seg GlobalSegment) error {
	if err := ch.checkGlobal(l, seg.Addr, len(seg.Data), true); err != nil {
		return err
	}
	ch.writeGlobal(l, seg.Addr, seg.Data)
	return nil
}

// InitGlobalLaneInt8 writes data, as bytes, into lane l's global memory at
// addr: InitGlobalLane for an int8 tensor, without building the segment.
func (ch *Chip) InitGlobalLaneInt8(l, addr int, data []int8) error {
	if err := ch.checkGlobal(l, addr, len(data), true); err != nil {
		return err
	}
	for len(data) > 0 {
		g := ch.gspan(l, addr, len(data))
		for i := range g {
			g[i] = byte(data[i])
		}
		data, addr = data[len(g):], addr+len(g)
	}
	return nil
}

// ZeroGlobal clears a region of global memory. Sessions use it between
// pooled runs to wipe the input and activation scratch regions while the
// mapped weights stay as they are.
func (ch *Chip) ZeroGlobal(addr, size int) error {
	if err := ch.checkGlobal(0, addr, size, true); err != nil {
		return err
	}
	// Every allocated lane is wiped, not just the active ones: a pooled chip
	// may shrink and regrow its occupancy between runs, and a lane left dirty
	// by an earlier wider run must not leak into a later one. Unlike Reset
	// this keeps no record of what ran: the host stages into the region
	// outside Run, and clearing it is a few tenths of a millisecond per batch.
	for l := range ch.garena {
		for a, n := addr, size; n > 0; {
			g := ch.gspan(l, a, n)
			clear(g)
			a, n = a+len(g), n-len(g)
		}
	}
	return nil
}

// ReadGlobal copies a region of lane 0's global memory after execution.
func (ch *Chip) ReadGlobal(addr, size int) ([]byte, error) {
	return ch.ReadGlobalLane(0, addr, size)
}

// ReadGlobalLane copies a region of lane l's global memory after execution.
func (ch *Chip) ReadGlobalLane(l, addr, size int) ([]byte, error) {
	if err := ch.checkGlobal(l, addr, size, false); err != nil {
		return nil, err
	}
	out := make([]byte, size)
	ch.readGlobal(out, l, addr)
	return out, nil
}
