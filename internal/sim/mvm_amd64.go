//go:build amd64 && !purego

package sim

// useAVX2 selects the body of every kernel that has an assembly form. It is
// set once, before any chip exists, from what the CPU and the OS report;
// nothing else in the package forks on the platform.
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

// mvmLaneKernel multiply-accumulates one lane's input vector against a
// packed weight matrix: acc[ch] += int8(input[row]) * int8(w[row*groupChans+ch])
// in wrapping int32 arithmetic, for every row and every ch < groupChans.
// Quantized activations are mostly zero (resnet18 measures 77% zero rows,
// mobilenetv2 37%), so zero rows cost no weight pass. The assembly takes the
// whole 8-channel blocks of every row in one call, the portable row loop the
// groupChans%8 channels behind them.
func mvmLaneKernel(input, w []byte, acc []int32, groupChans int) {
	if !useAVX2 {
		mvmLaneGeneric(input, w, acc, groupChans)
		return
	}
	w = w[:len(input)*groupChans]
	acc = acc[:groupChans]
	mvmLaneAVX2(input, w, acc, groupChans)
	blocks := groupChans &^ 7
	if blocks == groupChans {
		return
	}
	for row, b := range input {
		if b != 0 {
			mvmRowGeneric(int32(int8(b)), w[row*groupChans+blocks:(row+1)*groupChans], acc[blocks:])
		}
	}
}

// mvmLaneAVX2 is mvmLaneKernel over channels [0, groupChans&^7). The caller
// guarantees len(w) >= len(input)*groupChans and len(acc) >= groupChans.
//
//go:noescape
func mvmLaneAVX2(input, w []byte, acc []int32, groupChans int)

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0; it may be called only when CPUID
// reports OSXSAVE.
func xgetbv() (eax, edx uint32)
