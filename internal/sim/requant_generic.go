package sim

import (
	"encoding/binary"

	"cimflow/internal/tensor"
)

// requantGeneric is the portable body of the requantization kernel:
// out[i] = max(tensor.Requant(acc[i], mul, shift), lo) for i < len(out). It
// runs wherever the AVX2 kernel is absent (other architectures, -tags purego,
// an amd64 CPU or OS without AVX2), takes the len%8 elements behind the
// assembly's blocks, and is the reference the kernel tests compare against.
func requantGeneric(out []byte, acc []int32, mul int32, shift uint, lo int8) {
	acc = acc[:len(out)]
	for i, a := range acc {
		out[i] = byte(max(tensor.Requant(a, mul, shift), lo))
	}
}

// requantLEGeneric is requantGeneric over accumulators held as little-endian
// bytes, as local memory holds them: it decodes eight at a time onto the
// stack and hands them to the one body.
func requantLEGeneric(out, acc []byte, mul int32, shift uint, lo int8) {
	var buf [8]int32
	for len(out) > 0 {
		n := min(len(out), len(buf))
		for i := range buf[:n] {
			buf[i] = int32(binary.LittleEndian.Uint32(acc[4*i:]))
		}
		requantGeneric(out[:n], buf[:n], mul, shift, lo)
		out, acc = out[n:], acc[4*n:]
	}
}
