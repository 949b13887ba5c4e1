package sim

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"cimflow/internal/arch"
)

// globalLayout is a global memory to map: its size, its segments and its
// scratch ranges.
type globalLayout struct {
	size    int
	segs    []GlobalSegment
	scratch [][2]int
}

// randomLayout walks global memory from address 0 in pieces of up to three
// pages and a bit: segments (some empty, some abutting the one before),
// scratch ranges and unclaimed gaps, which read as zeros.
func randomLayout(rng *rand.Rand) globalLayout {
	var lo globalLayout
	for a := 0; a < 10<<dirtyShift; {
		n := rng.IntN(3<<dirtyShift + 100)
		switch rng.IntN(4) {
		case 0, 1:
			if rng.IntN(8) == 0 {
				n = 0
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.IntN(255) + 1)
			}
			lo.segs = append(lo.segs, GlobalSegment{Addr: a, Data: data})
		case 2:
			lo.scratch = append(lo.scratch, [2]int{a, n})
		}
		a += n
		lo.size = a
	}
	lo.size += rng.IntN(2 << dirtyShift) // a tail no piece reaches
	return lo
}

// reads is what the layout's global memory reads as.
func (lo globalLayout) reads() []byte {
	img := make([]byte, lo.size)
	for _, s := range lo.segs {
		copy(img[s.Addr:], s.Data)
	}
	return img
}

// TestMapGlobalSegments maps random layouts onto one three-lane chip in turn
// and holds every lane's global memory, byte for byte, to what the layout
// reads as, and every page to its kind: a page with a scratch byte is each
// lane's own and writable; any other is read-only, the segment's own memory
// when it lies inside one segment and otherwise one page of the chip's edge
// buffer that every lane reads. A write to a lane's private page reaches no
// other lane and no segment, and mapping the same layout again allocates
// nothing.
func TestMapGlobalSegments(t *testing.T) {
	cfg := arch.DefaultConfig()
	ch, err := NewChip(&cfg, WithLanes(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(50, 1))
	for i := range 40 {
		lo := randomLayout(rng)
		label := fmt.Sprintf("layout %d (%d bytes, %d segments)", i, lo.size, len(lo.segs))
		if err := ch.MapGlobal(lo.size, lo.segs, lo.scratch); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := lo.reads()
		for l := range 3 {
			if got := globalReads(ch, l, lo.size); !bytes.Equal(got, want) {
				t.Fatalf("%s: lane %d reads byte %d as %#x, want %#x", label, l, diffAt(got, want), got[diffAt(got, want)], want[diffAt(got, want)])
			}
		}
		edges := 0
		for p := range pageCount(lo.size) {
			a, end := p<<dirtyShift, min((p+1)<<dirtyShift, lo.size)
			scratch, in := false, -1
			for _, r := range lo.scratch {
				scratch = scratch || r[1] > 0 && r[0] < end && a < r[0]+r[1]
			}
			for k, s := range lo.segs {
				if s.Addr <= a && end <= s.Addr+len(s.Data) {
					in = k
				}
			}
			page := fmt.Sprintf("%s: page %d", label, p)
			if err := ch.checkGlobal(1, a, end-a, true); (err == nil) != scratch {
				t.Fatalf("%s (scratch %v): write check %v", page, scratch, err)
			}
			first := &ch.gspan(0, a, 1)[0]
			switch {
			case scratch:
				if first == &ch.gspan(1, a, 1)[0] {
					t.Fatalf("%s: a private page shared by lanes 0 and 1", page)
				}
			case in >= 0:
				if s := lo.segs[in]; first != &s.Data[a-s.Addr] {
					t.Fatalf("%s: not read in place from segment %d", page, in)
				}
			default:
				edges++
				if first != &ch.gspan(2, a, 1)[0] || first != &ch.gedge[(edges-1)<<dirtyShift] {
					t.Fatalf("%s: an edge page not one page of the edge buffer in every lane", page)
				}
			}
		}
		if len(ch.gedge) != edges<<dirtyShift {
			t.Fatalf("%s: %d edge buffer bytes for %d edge pages", label, len(ch.gedge), edges)
		}
		if len(lo.scratch) > 0 && lo.scratch[0][1] > 0 {
			r := lo.scratch[0]
			if err := ch.InitGlobalLane(1, GlobalSegment{Addr: r[0], Data: bytes.Repeat([]byte{0xee}, r[1])}); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got := globalReads(ch, 0, lo.size); !bytes.Equal(got, want) || !bytes.Equal(lo.reads(), want) {
				t.Fatalf("%s: a write to lane 1's private page reached lane 0 or a segment", label)
			}
		}
		if allocs := testing.AllocsPerRun(5, func() {
			if err := ch.MapGlobal(lo.size, lo.segs, lo.scratch); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%s: mapping it again allocates %.1f times", label, allocs)
		}
	}
}

// TestMapGlobalRejectsBadSegments: segments out of order, overlapping or past
// the size, and scratch past the size, fail and leave the chip as it was.
func TestMapGlobalRejectsBadSegments(t *testing.T) {
	cfg := arch.DefaultConfig()
	ch, err := NewChip(&cfg, WithLanes(2))
	if err != nil {
		t.Fatal(err)
	}
	size, segs, scratch := testImage()
	if err := ch.MapGlobal(size, segs, scratch); err != nil {
		t.Fatal(err)
	}
	seg := func(addr, n int) GlobalSegment { return GlobalSegment{Addr: addr, Data: make([]byte, n)} }
	for _, c := range []struct {
		name    string
		segs    []GlobalSegment
		scratch [][2]int
	}{
		{"descending", []GlobalSegment{seg(100, 10), seg(0, 10)}, nil},
		{"overlapping", []GlobalSegment{seg(0, 10), seg(9, 10)}, nil},
		{"past the size", []GlobalSegment{seg(size-5, 10)}, nil},
		{"negative address", []GlobalSegment{seg(-1, 10)}, nil},
		{"scratch past the size", nil, [][2]int{{size - 5, 10}}},
	} {
		if err := ch.MapGlobal(size, c.segs, c.scratch); err == nil {
			t.Errorf("%s: MapGlobal accepted it", c.name)
		}
		for l := range 2 {
			if !bytes.Equal(globalReads(ch, l, size), mappedBytes(0, size)) {
				t.Fatalf("%s: lane %d's global memory changed", c.name, l)
			}
		}
	}
}
