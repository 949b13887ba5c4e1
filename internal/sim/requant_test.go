package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"cimflow/internal/tensor"
)

// requantRef is what both entry points of the requant kernel must compute,
// in the plainest form: tensor.Requant per element, then the lower bound.
func requantRef(acc []int32, mul int32, shift uint, lo int8) []byte {
	out := make([]byte, len(acc))
	for i, a := range acc {
		out[i] = byte(max(tensor.Requant(a, mul, shift), lo))
	}
	return out
}

// requantRig holds the guarded mappings the kernel tests take their operands
// from: both end at an inaccessible page where the platform has one.
type requantRig struct {
	src, dst []byte
}

func newRequantRig(t testing.TB, maxN int) *requantRig {
	return &requantRig{src: guardedBytes(t, 4*maxN+3), dst: guardedBytes(t, maxN+3)}
}

// pair runs acc through requant ([]int32 source), requantLE (the same values
// as little-endian bytes ending srcOff bytes before the end of the source
// mapping) and the two portable bodies, and fails on the first element that
// differs from requantRef. Every destination, and at srcOff 0 requantLE's
// source, ends exactly at the end of its mapping, so a store or a load past
// the slice faults (the two assembly entry points are one body, so the
// guarded byte source stands for the []int32 one, which Go cannot map); the
// three bytes in front of a destination must come back untouched.
func (r *requantRig) pair(t testing.TB, acc []int32, mul int32, shift uint, lo int8, srcOff int) {
	t.Helper()
	n := len(acc)
	want := requantRef(acc, mul, shift, lo)
	src := r.src[len(r.src)-srcOff-4*n : len(r.src)-srcOff]
	for i, a := range acc {
		binary.LittleEndian.PutUint32(src[4*i:], uint32(a))
	}
	const guard = 0xA5
	buf := r.dst[len(r.dst)-n-3:]
	for _, k := range []struct {
		name string
		run  func(out []byte)
	}{
		{"requant", func(out []byte) { requant(out, acc, mul, shift, lo) }},
		{"requantLE", func(out []byte) { requantLE(out, src, mul, shift, lo) }},
		{"requantGeneric", func(out []byte) { requantGeneric(out, acc, mul, shift, lo) }},
		{"requantLEGeneric", func(out []byte) { requantLEGeneric(out, src, mul, shift, lo) }},
	} {
		for i := range buf {
			buf[i] = guard
		}
		k.run(buf[3:])
		for i, b := range buf {
			switch {
			case i < 3 && b != guard:
				t.Fatalf("%s n=%d mul=%d shift=%d lo=%d: byte %d in front of out overwritten with %#x", k.name, n, mul, shift, lo, 3-i, b)
			case i >= 3 && b != want[i-3]:
				t.Fatalf("%s n=%d mul=%d shift=%d lo=%d srcOff=%d: out[%d] = %d for acc %d, tensor.Requant says %d",
					k.name, n, mul, shift, lo, srcOff, i-3, int8(b), acc[i-3], int8(want[i-3]))
			}
		}
	}
}

// requantEdges returns the accumulators a (mul, shift) pair is most likely
// to get wrong: the fixed extremes, and the values on either side of every
// point where acc*mul>>shift crosses an INT8 or an int32 bound or zero.
func requantEdges(mul int32, shift uint) []int32 {
	edges := []int32{0, 1, -1, 127, -127, 128, -128, 129, -129, math.MaxInt32, math.MinInt32, math.MaxInt32 - 1, math.MinInt32 + 1}
	if mul == 0 {
		return edges
	}
	for _, target := range []int64{-1 << 31, -129, -128, -1, 0, 1, 127, 128, 1 << 31} {
		at := (target << shift) / int64(mul)
		for d := int64(-2); d <= 2; d++ {
			if a := at + d; a >= math.MinInt32 && a <= math.MaxInt32 {
				edges = append(edges, int32(a))
			}
		}
	}
	return edges
}

// TestRequantKernel compares both entry points of the requant kernel, and
// both portable bodies, with tensor.Requant per element: every length from 0
// to 40 and 63/64/65/257 (every count of 32- and 8-element blocks with every
// tail), both lower bounds, multipliers from 0 to both int32 extremes
// (hand-written ISA can load anything into SRegQuantMul), shifts from 0 to
// 31, and accumulators drawn from the full int32 range, the fixed extremes
// and the neighbourhood of every saturation threshold of the pair — each edge
// value once at an even and once at an odd position, the kernel multiplies
// the two separately. Sources and destinations end at an inaccessible page
// where the platform has one; the byte source also runs at odd alignments.
// Under -tags purego it proves the portable bodies alone.
func TestRequantKernel(t *testing.T) {
	t.Logf("AVX2 kernels in use: %v", useAVX2)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	lengths := []int{63, 64, 65, 257}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	muls := []int32{0, 1, -1, 3, 1 << 14, 1<<15 - 1, 1 << 15, 1 << 30, math.MaxInt32, math.MinInt32}
	shifts := []uint{0, 1, 14, 22, 30, 31}
	rng := rand.New(rand.NewSource(23))
	r := newRequantRig(t, 257)
	run := 0
	for _, mul := range muls {
		for _, shift := range shifts {
			edges := requantEdges(mul, shift)
			for _, lo := range []int8{-128, 0} {
				// Every edge at both parities.
				both := slices.Concat(edges, []int32{rng.Int31()}, edges)
				r.pair(t, both, mul, shift, lo, 0)
				for _, n := range lengths {
					acc := make([]int32, n)
					for i := range acc {
						switch rng.Intn(4) {
						case 0:
							acc[i] = edges[(run+i)%len(edges)]
						case 1: // small enough to land inside INT8 at the compiler's pairs
							acc[i] = int32(rng.Intn(1<<16) - 1<<15)
						default:
							acc[i] = int32(rng.Uint32())
						}
					}
					run++
					r.pair(t, acc, mul, shift, lo, run%4)
				}
			}
		}
	}
}

// FuzzRequant feeds both entry points and both portable bodies arbitrary
// accumulators, multipliers, shifts, lower bounds and source alignments
// against tensor.Requant.
func FuzzRequant(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0x7f, 1, 0, 0, 0}, int32(19661), uint8(22), false, uint8(0))
	f.Add(make([]byte, 4*33), int32(math.MinInt32), uint8(31), true, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, int32(-1), uint8(0), false, uint8(3))
	f.Add([]byte{}, int32(0), uint8(0), true, uint8(2))
	r := newRequantRig(f, 1024) // a worker process calls the target sequentially
	f.Fuzz(func(t *testing.T, raw []byte, mul int32, shift uint8, relu bool, srcOff uint8) {
		acc := make([]int32, min(len(raw)/4, 1024))
		for i := range acc {
			acc[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		lo := int8(-128)
		if relu {
			lo = 0
		}
		r.pair(t, acc, mul, uint(shift)&31, lo, int(srcOff)%4)
	})
}

// BenchmarkRequant times one write-back's requantization at the channel
// counts a CIM_MVM or VEC_QNT of the zoo has (8 to a whole 64-channel group)
// and at 1,024, the kernel against the portable loop it replaced, at a
// compiler-shaped (mul, shift) pair.
func BenchmarkRequant(b *testing.B) {
	mul, shift := tensor.QuantizeScale(0.0037)
	for _, n := range []int{8, 32, 64, 1024} {
		rng := rand.New(rand.NewSource(1))
		acc := make([]int32, n)
		for i := range acc {
			acc[i] = int32(rng.Intn(1<<17) - 1<<16)
		}
		out := make([]byte, n)
		b.Run(fmt.Sprintf("n=%d/kernel", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				requant(out, acc, mul, shift, -128)
			}
		})
		b.Run(fmt.Sprintf("n=%d/generic", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				requantGeneric(out, acc, mul, shift, -128)
			}
		})
	}
}
