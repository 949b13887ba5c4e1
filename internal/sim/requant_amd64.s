//go:build amd64 && !purego

#include "textflag.h"

// Register roles in requantAVX2, fixed for the whole function:
//
//	DI  out                 SI  acc                 CX  8-element blocks left
//	Y15 mul in every dword  X10 shift count         Y11 lo in every dword
//	Y14 1<<63 in every qword                        Y13 (1<<63)>>shift
//	Y12 0x7FFFFFFF in every dword
//	Y1-Y4 scratch           Y0, Y5-Y7 results

// REQUANT8 turns the 8 accumulators at off(SI) into r = the 8 values
// max(sat32(int64(acc)*mul >> shift), lo), in element order.
//
// VPMULDQ multiplies the low dword of each qword, so the even elements
// multiply in place and the odd ones after a 32-bit shift down: two vectors
// of four exact 64-bit products. AVX2 has no 64-bit arithmetic shift; adding
// the bias 1<<63 (an XOR of the sign bit) makes a product an unsigned number
// whose logical shift is its floor division, and subtracting the shifted
// bias takes it back. The low dwords of the eight results are interleaved
// back into element order, and so are the high dwords: a result fits int32
// exactly when its high dword is the sign extension of its low one, and one
// that does not becomes MaxInt32 or MinInt32 by the sign of its high dword —
// which the packs behind this macro saturate on to 127 or -128 like any
// other dword out of INT8 range.
#define REQUANT8(off, r) \
	VMOVDQU   off(SI), r; \
	VPSRLQ    $32, r, Y1; \
	VPMULDQ   Y15, r, r; \
	VPMULDQ   Y15, Y1, Y1; \
	VPXOR     Y14, r, r; \
	VPXOR     Y14, Y1, Y1; \
	VPSRLQ    X10, r, r; \
	VPSRLQ    X10, Y1, Y1; \
	VPSUBQ    Y13, r, r; \
	VPSUBQ    Y13, Y1, Y1; \
	VPSLLQ    $32, Y1, Y2; \
	VPSRLQ    $32, r, Y3; \
	VPBLENDD  $0xAA, Y2, r, Y2; \
	VPBLENDD  $0xAA, Y1, Y3, Y3; \
	VPSRAD    $31, Y2, Y4; \
	VPCMPEQD  Y3, Y4, Y4; \
	VPSRAD    $31, Y3, Y3; \
	VPXOR     Y12, Y3, Y3; \
	VPBLENDVB Y4, Y2, Y3, r; \
	VPMAXSD   Y11, r, r

// func requantAVX2(out []byte, acc []int32, mul int32, shift uint, lo int8)
//
// out[i] = max(tensor.Requant(acc[i], mul, shift), lo) for i < len(out),
// exact for every int32 acc and mul and every shift below 32 (the 64-bit
// product is exact, the shift is the arithmetic one). The caller guarantees
// len(out)%8 == 0 and len(acc) == len(out). 32 elements per iteration, then
// 8 at a time; every load is 32 bytes of acc and every store 32 or 8 bytes of
// out, all unaligned, none past either slice. Every vector instruction is
// VEX-encoded, the moves from general registers included: one legacy-SSE
// MOVQ among them costs a state transition each way, 140 ns a call here.
TEXT ·requantAVX2(SB), NOSPLIT, $0-65
	MOVQ         out_base+0(FP), DI
	MOVQ         out_len+8(FP), CX
	MOVQ         acc_base+24(FP), SI
	MOVL         mul+48(FP), AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	MOVQ         shift+56(FP), AX
	VMOVQ        AX, X10
	MOVBLSX      lo+64(FP), AX
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11
	VPCMPEQD     Y12, Y12, Y12
	VPSLLQ       $63, Y12, Y14
	VPSRLQ       X10, Y14, Y13
	VPSRLD       $1, Y12, Y12
	SHRQ         $3, CX
	MOVQ         CX, BX
	SHRQ         $2, BX                 // BX = 32-element iterations
	JZ           blocks8

blocks32:
	REQUANT8(0, Y0)
	REQUANT8(32, Y5)
	REQUANT8(64, Y6)
	REQUANT8(96, Y7)
	// The packs work within each 128-bit half: the four bytes of elements
	// 4k..4k+3 end up as dword k/2 of the low half for even k and of the high
	// half for odd k. VPERMQ pairs the halves up, VPSHUFD puts each in order.
	VPACKSSDW Y5, Y0, Y0
	VPACKSSDW Y7, Y6, Y6
	VPACKSSWB Y6, Y0, Y0
	VPERMQ    $0xD8, Y0, Y0
	VPSHUFD   $0xD8, Y0, Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $128, SI
	ADDQ      $32, DI
	DECQ      BX
	JNZ       blocks32

blocks8:
	ANDQ $3, CX
	JZ   done

block8:
	REQUANT8(0, Y0)
	VEXTRACTI128 $1, Y0, X5
	VPACKSSDW    X5, X0, X0
	VPACKSSWB    X0, X0, X0
	VMOVQ        X0, (DI)
	ADDQ         $32, SI
	ADDQ         $8, DI
	DECQ         CX
	JNZ          block8

done:
	VZEROUPPER
	RET

// func requantLEAVX2(out, acc []byte, mul int32, shift uint, lo int8)
//
// requantAVX2 with the accumulators passed as the little-endian bytes they
// are in memory: the same frame layout, and the body reads only acc's base.
TEXT ·requantLEAVX2(SB), NOSPLIT, $0-65
	JMP ·requantAVX2(SB)
