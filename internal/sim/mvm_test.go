package sim

import (
	"math"
	"testing"
)

// mvmRowPair runs mvmRow and the portable loop on copies of one
// accumulator, both taken at the odd element offset off of a larger buffer
// (w likewise comes in unaligned from the caller), and reports the first
// channel they disagree on. The guard elements around the accumulator must
// come back untouched.
func mvmRowPair(t testing.TB, iv int32, w []byte, acc []int32, off int) {
	t.Helper()
	const guard = math.MinInt32 + 12345
	frame := func() ([]int32, []int32) {
		buf := make([]int32, off+len(acc)+9)
		for i := range buf {
			buf[i] = guard
		}
		a := buf[off : off+len(acc)]
		copy(a, acc)
		return buf, a
	}
	gotBuf, got := frame()
	wantBuf, want := frame()
	mvmRow(iv, w, got)
	mvmRowGeneric(iv, w, want)
	for i := range gotBuf {
		if gotBuf[i] != wantBuf[i] {
			t.Fatalf("iv=%d width=%d off=%d: element %d (channel %d): kernel %d, portable %d",
				iv, len(w), off, i, i-off, gotBuf[i], wantBuf[i])
		}
	}
}

// TestMVMRowKernels compares the assembly row kernel against the portable
// loop at every width from 0 to 136 (empty, sub-block, the 8- and 32-channel
// block edges, several 32-channel iterations with and without 8-channel
// blocks and a scalar tail behind them), every INT8 input value, accumulators
// at both ends of the int32 range so the adds wrap, and unaligned operands.
func TestMVMRowKernels(t *testing.T) {
	if !useAVX2 {
		t.Skip("AVX2 kernel not in use; mvmRow is the portable loop")
	}
	const maxWidth = 136
	wbuf := make([]byte, 1+maxWidth)
	for i := range wbuf {
		wbuf[i] = byte(i*37 + 11)
	}
	wbuf[1], wbuf[2] = 0x80, 0x7f // the extreme weights, in both alignments' first block
	accs := make([]int32, maxWidth)
	for i := range accs {
		switch i % 4 {
		case 0:
			accs[i] = math.MaxInt32
		case 1:
			accs[i] = math.MinInt32
		case 2:
			accs[i] = math.MaxInt32 - int32(i)*97
		default:
			accs[i] = int32(i)*1_000_003 - 7
		}
	}
	for n := 0; n <= maxWidth; n++ {
		for wOff := 0; wOff <= 1; wOff++ {
			for iv := int32(-128); iv <= 127; iv++ {
				mvmRowPair(t, iv, wbuf[wOff:wOff+n], accs[:n], 1+2*wOff)
			}
		}
	}
}

// FuzzMVMRow feeds the two row kernels arbitrary weights, input values,
// accumulator seeds and operand offsets.
func FuzzMVMRow(f *testing.F) {
	if !useAVX2 {
		f.Skip("AVX2 kernel not in use; mvmRow is the portable loop")
	}
	f.Add([]byte{0x80, 0x7f, 0, 1, 0xff, 3, 4, 5, 6}, int8(-128), int32(math.MinInt32), uint8(1))
	f.Add(make([]byte, 33), int8(127), int32(math.MaxInt32), uint8(3))
	f.Add([]byte{}, int8(1), int32(0), uint8(0))
	f.Fuzz(func(t *testing.T, w []byte, iv int8, seed int32, off uint8) {
		acc := make([]int32, len(w))
		for i := range acc {
			// Wrapping on purpose: seeds near either end of the range put
			// some accumulators on each side of the wraparound.
			acc[i] = seed + int32(i)*0x01000193
		}
		wOff := int(off) % 8
		w = append(make([]byte, wOff), w...)[wOff:]
		mvmRowPair(t, int32(iv), w, acc, int(off)%5)
	})
}
