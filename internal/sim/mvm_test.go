package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"
)

// mvmLaneRef is what mvmLaneKernel must compute, in the plainest form: every
// row, zero or not, through the portable row loop, in row order.
func mvmLaneRef(input, w []byte, acc []int32, groupChans int) {
	for row, b := range input {
		mvmRowGeneric(int32(int8(b)), w[row*groupChans:(row+1)*groupChans], acc)
	}
}

// mvmLanePair runs mvmLaneKernel and mvmLaneRef on copies of one
// accumulator, both taken at the element offset off of a larger buffer, and
// fails on the first element they disagree on. The guard elements around the
// accumulator must come back untouched.
func mvmLanePair(t testing.TB, input, w []byte, acc []int32, off, groupChans int) {
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
	mvmLaneKernel(input, w, got, groupChans)
	mvmLaneRef(input, w, want, groupChans)
	for i := range gotBuf {
		if gotBuf[i] != wantBuf[i] {
			t.Fatalf("rows=%d chans=%d off=%d: element %d (channel %d): kernel %d, reference %d",
				len(input), groupChans, off, i, i-off, gotBuf[i], wantBuf[i])
		}
	}
}

// mvmSeedAccs fills acc with values at and near both ends of the int32
// range, so the kernel's adds wrap in either direction.
func mvmSeedAccs(acc []int32) {
	for i := range acc {
		switch i % 4 {
		case 0:
			acc[i] = math.MaxInt32
		case 1:
			acc[i] = math.MinInt32
		case 2:
			acc[i] = math.MaxInt32 - int32(i)*97
		default:
			acc[i] = int32(i)*1_000_003 - 7
		}
	}
}

// TestMVMLaneKernel compares mvmLaneKernel against the plain row loop at
// every group width from 1 to 136 (each register tile alone, every
// combination behind a 64-wide one, two 64-wide tiles, with and without the
// scalar channels behind them), input lengths on both sides of every piece
// of the mask scan (whole 32-row chunks, the 16/8/4/2/1-byte tail pieces,
// odd and even nonzero counts), zero-row shares from none to all, the
// all-0x80 operands whose products are the largest, accumulators that wrap,
// and operands at odd offsets. Input and weights end exactly at the end of
// their mappings (an inaccessible page follows where the platform has one),
// so a load past either slice faults. Under -tags purego it proves the
// portable scan instead.
func TestMVMLaneKernel(t *testing.T) {
	t.Logf("AVX2 kernels in use: %v", useAVX2)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	const maxChans, maxRows = 136, 512
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 27, 31, 32, 33, 63, 64, 65, 147, 511, 512}
	rng := rand.New(rand.NewSource(15))
	inBuf := guardedBytes(t, maxRows)
	wRand := guardedBytes(t, maxRows*maxChans)
	for i := range wRand {
		wRand[i] = byte(rng.Intn(256))
	}
	w80 := guardedBytes(t, maxRows*maxChans)
	for i := range w80 {
		w80[i] = 0x80
	}
	accs := make([]int32, maxChans)
	mvmSeedAccs(accs)

	for chans := 1; chans <= maxChans; chans++ {
		for _, n := range lengths {
			in := inBuf[maxRows-n:]
			off := 1 + chans%4
			for _, zero := range []float64{0, 0.5, 0.77, 0.95, 1} {
				for i := range in {
					in[i] = 0
					if rng.Float64() >= zero {
						in[i] = byte(1 + rng.Intn(255))
					}
				}
				mvmLanePair(t, in, wRand[len(wRand)-n*chans:], accs[:chans], off, chans)
			}
			for i := range in {
				in[i] = 0x80
			}
			mvmLanePair(t, in, w80[len(w80)-n*chans:], accs[:chans], off, chans)
		}
	}
}

// FuzzMVMLane feeds mvmLaneKernel and the plain row loop arbitrary inputs,
// weights (pat, repeated over the matrix with a per-repeat twist), group
// widths, accumulator seeds and operand offsets.
func FuzzMVMLane(f *testing.F) {
	f.Add([]byte{0x80, 0, 0x7f, 0, 0, 1, 0xff, 3, 0}, []byte{0x80, 0x7f, 0, 1, 0xff, 3, 4, 5, 6}, uint8(72), int32(math.MinInt32), uint8(1))
	f.Add(make([]byte, 33), []byte{1}, uint8(64), int32(math.MaxInt32), uint8(3))
	f.Add([]byte{}, []byte{}, uint8(9), int32(0), uint8(0))
	f.Fuzz(func(t *testing.T, input, pat []byte, chans uint8, seed int32, off uint8) {
		groupChans := 1 + int(chans)%136
		if len(input) > 1024 {
			input = input[:1024]
		}
		wOff := int(off) % 8
		w := make([]byte, wOff+len(input)*groupChans)[wOff:]
		for i := range w {
			if len(pat) != 0 {
				w[i] = pat[i%len(pat)] + byte(i/len(pat))*29
			}
		}
		input = append(make([]byte, wOff), input...)[wOff:]
		acc := make([]int32, groupChans)
		for i := range acc {
			// Wrapping on purpose: seeds near either end of the range put
			// some accumulators on each side of the wraparound.
			acc[i] = seed + int32(i)*0x01000193
		}
		mvmLanePair(t, input, w, acc, int(off)%5, groupChans)
	})
}

// BenchmarkMVMLaneKernel times one CIM_MVM of one lane on a 512-row macro
// group at the group widths the benchmark's design points have, over 64
// distinct random inputs (so the branch predictor cannot learn one mask) at
// resnet18's measured zero-row share and with no zero rows.
func BenchmarkMVMLaneKernel(b *testing.B) {
	const rows, inputs = 512, 64
	for _, chans := range []int{32, 64, 128} {
		for _, zero := range []float64{0.77, 0} {
			b.Run(fmt.Sprintf("chans=%d/zero=%.2f", chans, zero), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				w := make([]byte, rows*chans)
				rng.Read(w)
				in := make([]byte, inputs*rows)
				for i := range in {
					if rng.Float64() >= zero {
						in[i] = byte(1 + rng.Intn(255))
					}
				}
				acc := make([]int32, chans)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % inputs
					mvmLaneKernel(in[k*rows:(k+1)*rows], w, acc, chans)
				}
			})
		}
	}
}
