//go:build amd64 && !purego

package sim

// requant is the write-back arithmetic of CIM_MVM over one lane's
// accumulators: out[i] = max(tensor.Requant(acc[i], mul, shift), lo) for
// i < len(out), lo = -128 for the plain write-back and 0 for the fused ReLU.
// It is exact for every acc and mul and every shift below 32. out must not
// overlap acc. The assembly takes the whole 8-element blocks, the portable
// loop the len%8 tail.
func requant(out []byte, acc []int32, mul int32, shift uint, lo int8) {
	if !useAVX2 {
		requantGeneric(out, acc, mul, shift, lo)
		return
	}
	n := len(out) &^ 7
	requantAVX2(out[:n], acc[:n], mul, shift, lo)
	requantGeneric(out[n:], acc[n:len(out)], mul, shift, lo)
}

// requantLE is requant over accumulators held as little-endian bytes
// (VEC_QNT's source window, at any alignment): len(acc) == 4*len(out).
func requantLE(out, acc []byte, mul int32, shift uint, lo int8) {
	if !useAVX2 {
		requantLEGeneric(out, acc, mul, shift, lo)
		return
	}
	n := len(out) &^ 7
	requantLEAVX2(out[:n], acc[:4*n], mul, shift, lo)
	requantLEGeneric(out[n:], acc[4*n:4*len(out)], mul, shift, lo)
}

// requantAVX2 does out[i] = max(tensor.Requant(acc[i], mul, shift), lo) for
// i < len(out). The caller guarantees len(out)%8 == 0, len(acc) == len(out)
// and shift < 32.
//
//go:noescape
func requantAVX2(out []byte, acc []int32, mul int32, shift uint, lo int8)

// requantLEAVX2 is requantAVX2 reading the accumulators as little-endian
// bytes, which is what amd64 holds an int32 as: the same body, entered with
// len(acc) == 4*len(out).
//
//go:noescape
func requantLEAVX2(out, acc []byte, mul int32, shift uint, lo int8)
