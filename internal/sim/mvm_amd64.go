//go:build amd64 && !purego

package sim

// useAVX2 selects mvmRow's body. It is set once, before any chip exists, from
// what the CPU and the OS report; nothing else in the package forks on the
// platform.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether AVX2 instructions may be executed: the CPU
// implements AVX and AVX2, and the OS saves the XMM and YMM state across
// context switches (OSXSAVE set and XCR0 bits 1 and 2 enabled).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// mvmRow multiply-accumulates one nonzero input value against one packed
// weight row: acc[ch] += iv * int8(wRow[ch]) in wrapping int32 arithmetic.
// The assembly takes the whole 8-channel blocks, the loop here the len%8
// tail.
func mvmRow(iv int32, wRow []byte, acc []int32) {
	if !useAVX2 {
		mvmRowGeneric(iv, wRow, acc)
		return
	}
	a := acc[:len(wRow)]
	mvmRowAVX2(iv, wRow, a)
	for ch := len(wRow) &^ 7; ch < len(wRow); ch++ {
		a[ch] += iv * int32(int8(wRow[ch]))
	}
}

// mvmRowAVX2 does acc[ch] += iv * int8(w[ch]) for ch < len(w)&^7. The caller
// guarantees len(acc) >= len(w).
//
//go:noescape
func mvmRowAVX2(iv int32, w []byte, acc []int32)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0; it may be called only when CPUID
// reports OSXSAVE.
func xgetbv() (eax, edx uint32)
