//go:build !amd64 || purego

package sim

// useAVX2 is false wherever the assembly kernel is not built.
const useAVX2 = false

// mvmRow multiply-accumulates one nonzero input value against one packed
// weight row: acc[ch] += iv * int8(wRow[ch]) in wrapping int32 arithmetic.
func mvmRow(iv int32, wRow []byte, acc []int32) { mvmRowGeneric(iv, wRow, acc) }
