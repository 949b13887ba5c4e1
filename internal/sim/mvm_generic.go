package sim

import "encoding/binary"

// mvmLaneGeneric is the portable body of mvmLaneKernel, run wherever the
// AVX2 kernel is absent (other architectures, -tags purego, an amd64 CPU or
// OS without AVX2). Zero input rows skip their weight pass, and runs of zeros
// are skipped a 64-bit word at a time.
func mvmLaneGeneric(input, w []byte, acc []int32, groupChans int) {
	for row := 0; row < len(input); {
		b := input[row]
		if b == 0 {
			if row+8 <= len(input) && binary.LittleEndian.Uint64(input[row:]) == 0 {
				row += 8
			} else {
				row++
			}
			continue
		}
		base := row * groupChans
		mvmRowGeneric(int32(int8(b)), w[base:base+groupChans], acc)
		row++
	}
}

// mvmRowGeneric multiply-accumulates one input value against one packed
// weight row: acc[ch] += iv * int8(wRow[ch]) in wrapping int32 arithmetic.
// Weights load eight INT8 channels per 64-bit word, each channel pays a
// shift, a sign-extend, a multiply and a load-add-store of its accumulator.
// A plain loop of it over every row is the reference the kernel tests
// compare mvmLaneKernel against.
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
