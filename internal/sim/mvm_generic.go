package sim

import "encoding/binary"

// mvmRowGeneric is the portable body of mvmRow: weights load eight INT8
// channels per 64-bit word, each channel pays a shift, a sign-extend, a
// multiply and a load-add-store of its accumulator. It is what mvmRow runs
// wherever the AVX2 kernel is absent (other architectures, -tags purego, an
// amd64 CPU or OS without AVX2) and the reference the kernel tests compare
// the assembly against.
func mvmRowGeneric(iv int32, wRow []byte, acc []int32) {
	a := acc[:len(wRow)]
	ch := 0
	for ; ch+8 <= len(wRow); ch += 8 {
		word := binary.LittleEndian.Uint64(wRow[ch:])
		a2 := a[ch : ch+8 : ch+8]
		a2[0] += iv * int32(int8(word))
		a2[1] += iv * int32(int8(word>>8))
		a2[2] += iv * int32(int8(word>>16))
		a2[3] += iv * int32(int8(word>>24))
		a2[4] += iv * int32(int8(word>>32))
		a2[5] += iv * int32(int8(word>>40))
		a2[6] += iv * int32(int8(word>>48))
		a2[7] += iv * int32(int8(word>>56))
	}
	for ; ch < len(wRow); ch++ {
		a[ch] += iv * int32(int8(wRow[ch]))
	}
}
