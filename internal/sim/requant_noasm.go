//go:build !amd64 || purego

package sim

// requant is the write-back arithmetic of CIM_MVM over one lane's
// accumulators: out[i] = max(tensor.Requant(acc[i], mul, shift), lo) for
// i < len(out), lo = -128 for the plain write-back and 0 for the fused ReLU.
func requant(out []byte, acc []int32, mul int32, shift uint, lo int8) {
	requantGeneric(out, acc, mul, shift, lo)
}

// requantLE is requant over accumulators held as little-endian bytes
// (VEC_QNT's source window): len(acc) == 4*len(out).
func requantLE(out, acc []byte, mul int32, shift uint, lo int8) {
	requantLEGeneric(out, acc, mul, shift, lo)
}
