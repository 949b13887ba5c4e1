//go:build !amd64 || purego

package sim

// useAVX2 is false wherever the assembly kernels are not built.
const useAVX2 = false

// mvmLaneKernel multiply-accumulates one lane's input vector against a
// packed weight matrix: acc[ch] += int8(input[row]) * int8(w[row*groupChans+ch])
// in wrapping int32 arithmetic, for every row and every ch < groupChans.
func mvmLaneKernel(input, w []byte, acc []int32, groupChans int) {
	mvmLaneGeneric(input, w, acc, groupChans)
}
