//go:build amd64 && !purego

package sim

// vecMac8 is VEC_MAC8 over whole unit-stride operands: dst32[i] += a8[i] *
// b8[i] in wrapping int32 arithmetic for i < len(a), dst holding
// little-endian INT32s. The assembly takes the whole 8-element blocks, the
// portable loop the len%8 tail.
func vecMac8(dst, a, b []byte) {
	if !useAVX2 {
		vecMac8Generic(dst, a, b)
		return
	}
	n := len(a) &^ 7
	vecMac8AVX2(dst[:4*n], a[:n], b[:n])
	vecMac8Generic(dst[4*n:], a[n:], b[n:])
}

// vecClamp8 is VEC_RELU8 (hi = 127) and VEC_RELU68 over whole unit-stride
// operands: dst8[i] = src8[i] clamped to [0, hi] for i < len(src), 0 <= hi.
// dst may be src. The assembly takes the whole 32-byte blocks, the portable
// loop the len%32 tail.
func vecClamp8(dst, src []byte, hi int8) {
	if !useAVX2 {
		vecClamp8Generic(dst, src, hi)
		return
	}
	n := len(src) &^ 31
	vecClamp8AVX2(dst[:n], src[:n], hi)
	vecClamp8Generic(dst[n:], src[n:], hi)
}

// vecMac8AVX2 does dst32[i] += a8[i] * b8[i] for i < len(a). The caller
// guarantees len(a)%8 == 0, len(b) == len(a) and len(dst) == 4*len(a).
//
//go:noescape
func vecMac8AVX2(dst, a, b []byte)

// vecClamp8AVX2 does dst[i] = min(max(int8(src[i]), 0), hi) for i <
// len(src). The caller guarantees len(src)%32 == 0 and len(dst) == len(src).
//
//go:noescape
func vecClamp8AVX2(dst, src []byte, hi int8)
