//go:build !amd64 || purego

package sim

// vecMac8 is VEC_MAC8 over whole unit-stride operands: dst32[i] += a8[i] *
// b8[i] in wrapping int32 arithmetic, dst holding little-endian INT32s.
func vecMac8(dst, a, b []byte) { vecMac8Generic(dst, a, b) }

// vecClamp8 is VEC_RELU8 (hi = 127) and VEC_RELU68 over whole unit-stride
// operands: dst8[i] = src8[i] clamped to [0, hi], 0 <= hi.
func vecClamp8(dst, src []byte, hi int8) { vecClamp8Generic(dst, src, hi) }
