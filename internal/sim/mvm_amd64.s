//go:build amd64 && !purego

#include "textflag.h"

// func mvmRowAVX2(iv int32, w []byte, acc []int32)
//
// Per 8 channels: sign-extend 8 packed INT8 weights to INT32 lanes, multiply
// by the broadcast input value (low 32 bits of the product) and add into the
// INT32 accumulators (wrapping) — exactly Go's int32 arithmetic. All loads and
// stores are unaligned; w and acc come from arbitrary slice offsets.
TEXT ·mvmRowAVX2(SB), NOSPLIT, $0-56
	MOVQ         w_base+8(FP), SI
	MOVQ         w_len+16(FP), CX
	MOVQ         acc_base+32(FP), DI
	MOVL         iv+0(FP), AX
	VMOVD        AX, X0
	VPBROADCASTD X0, Y0
	SHRQ         $3, CX             // CX = whole 8-channel blocks
	MOVQ         CX, DX
	SHRQ         $2, DX             // DX = 32-channel iterations
	JZ           tail8

loop32:
	VPMOVSXBD (SI), Y1
	VPMOVSXBD 8(SI), Y2
	VPMOVSXBD 16(SI), Y3
	VPMOVSXBD 24(SI), Y4
	VPMULLD   Y0, Y1, Y1
	VPMULLD   Y0, Y2, Y2
	VPMULLD   Y0, Y3, Y3
	VPMULLD   Y0, Y4, Y4
	VPADDD    (DI), Y1, Y1
	VPADDD    32(DI), Y2, Y2
	VPADDD    64(DI), Y3, Y3
	VPADDD    96(DI), Y4, Y4
	VMOVDQU   Y1, (DI)
	VMOVDQU   Y2, 32(DI)
	VMOVDQU   Y3, 64(DI)
	VMOVDQU   Y4, 96(DI)
	ADDQ      $32, SI
	ADDQ      $128, DI
	DECQ      DX
	JNZ       loop32

tail8:
	ANDQ $3, CX                     // CX = remaining 8-channel blocks
	JZ   done

loop8:
	VPMOVSXBD (SI), Y1
	VPMULLD   Y0, Y1, Y1
	VPADDD    (DI), Y1, Y1
	VMOVDQU   Y1, (DI)
	ADDQ      $8, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       loop8

done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
