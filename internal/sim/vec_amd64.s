//go:build amd64 && !purego

#include "textflag.h"

// func vecMac8AVX2(dst, a, b []byte)
//
// Per 8 elements: sign-extend 8 INT8 values of a and of b to INT32 lanes,
// multiply (low 32 bits of the product) and add into the INT32 destination
// (wrapping) — exactly Go's int32 arithmetic. All loads and stores are
// unaligned; the operands are arbitrary offsets into local memory.
TEXT ·vecMac8AVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	MOVQ b_base+48(FP), DX
	SHRQ $3, CX                     // CX = 8-element blocks
	MOVQ CX, BX
	SHRQ $1, BX                     // BX = 16-element iterations
	JZ   mac8

mac16:
	VPMOVSXBD (SI), Y0
	VPMOVSXBD 8(SI), Y1
	VPMOVSXBD (DX), Y2
	VPMOVSXBD 8(DX), Y3
	VPMULLD   Y2, Y0, Y0
	VPMULLD   Y3, Y1, Y1
	VPADDD    (DI), Y0, Y0
	VPADDD    32(DI), Y1, Y1
	VMOVDQU   Y0, (DI)
	VMOVDQU   Y1, 32(DI)
	ADDQ      $16, SI
	ADDQ      $16, DX
	ADDQ      $64, DI
	DECQ      BX
	JNZ       mac16

mac8:
	ANDQ $1, CX                     // CX = the odd 8-element block
	JZ   macdone
	VPMOVSXBD (SI), Y0
	VPMOVSXBD (DX), Y2
	VPMULLD   Y2, Y0, Y0
	VPADDD    (DI), Y0, Y0
	VMOVDQU   Y0, (DI)

macdone:
	VZEROUPPER
	RET

// func vecClamp8AVX2(dst, src []byte, hi int8)
//
// Per 32 bytes: signed-byte max with zero, signed-byte min with the broadcast
// bound. A block is loaded whole before it is stored, so dst may be src.
TEXT ·vecClamp8AVX2(SB), NOSPLIT, $0-49
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	MOVBLSX      hi+48(FP), AX
	VMOVD        AX, X1
	VPBROADCASTB X1, Y1
	VPXOR        Y0, Y0, Y0
	SHRQ         $5, CX             // CX = 32-byte blocks
	JZ           clampdone

clamp32:
	VMOVDQU (SI), Y2
	VPMAXSB Y0, Y2, Y2
	VPMINSB Y1, Y2, Y2
	VMOVDQU Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     clamp32

clampdone:
	VZEROUPPER
	RET
