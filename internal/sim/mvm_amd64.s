//go:build amd64 && !purego

#include "textflag.h"

// Register roles in mvmLaneAVX2, fixed for the whole function:
//
//	SI  input base          R8  len(input)          R9  row stride = groupChans
//	BX  weights of the tile's first channel in row 0
//	DI  the tile's accumulators
//	R10 channels still to do, a multiple of 8       R14 width of the tile
//	R11 row of the current 32-byte input chunk      AX  its nonzero-row mask
//	R12 weights of the pending nonzero row (the first of a pair), 0 = none
//	R13 that row's input value as an unsigned 16-bit pattern
//	DX  weights of the pair's second row            CX  its input value
//	R15 scratch
//	Y0-Y7 accumulators      Y8  broadcast (iv0, iv1) int16 pair
//	Y9  zero                Y10-Y14 scratch

// LOADACC16 loads 16 accumulators into the channel order that VPMADDWD over
// VPUNPCKL/HWD produces: lo = channels 0-3 and 8-11, hi = 4-7 and 12-15.
#define LOADACC16(o0, o1, lo, hi) \
	VMOVDQU    o0(DI), Y10; \
	VMOVDQU    o1(DI), Y11; \
	VPERM2I128 $0x20, Y11, Y10, lo; \
	VPERM2I128 $0x31, Y11, Y10, hi

// STOREACC16 undoes LOADACC16's order and stores the 16 accumulators.
#define STOREACC16(o0, o1, lo, hi) \
	VPERM2I128 $0x20, hi, lo, Y10; \
	VPERM2I128 $0x31, hi, lo, Y11; \
	VMOVDQU    Y10, o0(DI); \
	VMOVDQU    Y11, o1(DI)

// MAC16 adds iv0*row0 + iv1*row1 over 16 channels: both weight rows widen
// to int16 and interleave into (row0, row1) pairs, and one VPMADDWD per 8
// channels multiplies each pair by (iv0, iv1) and sums it. A sum of two
// int8*int8 products is at most 32768, far inside the int32 lane.
#define MAC16(o, lo, hi) \
	VPMOVSXBW  o(R12), Y10; \
	VPMOVSXBW  o(DX), Y11; \
	VPUNPCKLWD Y11, Y10, Y12; \
	VPUNPCKHWD Y11, Y10, Y13; \
	VPMADDWD   Y8, Y12, Y12; \
	VPMADDWD   Y8, Y13, Y13; \
	VPADDD     Y12, lo, lo; \
	VPADDD     Y13, hi, hi

// TAILPIECE shifts the mask up by n and sets its low n bits from the n
// (4, 8 or 16) input bytes just loaded into X14. Lanes a short load zeroed
// compare equal to zero, so they leave bits n..15 clear.
#define TAILPIECE(n) \
	VPCMPEQB  X9, X14, X14; \
	VPMOVMSKB X14, R15; \
	XORL      $0xffff, R15; \
	SHLL      $n, AX; \
	ORL       R15, AX

// func mvmLaneAVX2(input, w []byte, acc []int32, groupChans int)
//
// One CIM_MVM of one lane over channels [0, groupChans&^7): for every row
// with input[row] != 0, acc[ch] += int8(input[row]) * int8(w[row*groupChans+ch])
// in wrapping int32 arithmetic — the portable loop's sums, added in another
// order. The caller guarantees len(w) >= len(input)*groupChans and
// len(acc) >= groupChans.
//
// Channels are cut into register tiles, the widest of 64 / 32 / 16 / 8 that
// still fits. A tile's accumulators are loaded once, stay in Y0-Y7 while the
// whole input is scanned, and are stored once. The scan turns 32 input bytes
// at a time into a mask of nonzero rows and takes set bits lowest first, two
// rows per MAC; a last unpaired row is paired with itself at iv1 = 0. The
// len%32 tail builds its mask from 16-, 8- and 4-byte loads and single bytes
// that end exactly at the end of the input — no byte past the slice is read,
// which may end where local memory does. All loads and stores are unaligned.
TEXT ·mvmLaneAVX2(SB), NOSPLIT, $0-80
	MOVQ  input_base+0(FP), SI
	MOVQ  input_len+8(FP), R8
	MOVQ  w_base+24(FP), BX
	MOVQ  acc_base+48(FP), DI
	MOVQ  groupChans+72(FP), R9
	MOVQ  R9, R10
	ANDQ  $~7, R10
	VPXOR Y9, Y9, Y9

tile:
	MOVQ $64, R14
	CMPQ R10, R14
	JAE  load64
	MOVQ $32, R14
	CMPQ R10, R14
	JAE  load32
	MOVQ $16, R14
	CMPQ R10, R14
	JAE  load16
	MOVQ $8, R14
	CMPQ R10, R14
	JAE  load8
	VZEROUPPER
	RET

load64:
	LOADACC16(192, 224, Y6, Y7)
	LOADACC16(128, 160, Y4, Y5)

load32:
	LOADACC16(64, 96, Y2, Y3)

load16:
	LOADACC16(0, 32, Y0, Y1)
	JMP scan

load8:
	VMOVDQU (DI), Y0                // the 8-wide tile keeps channel order

scan:
	XORL R11, R11
	XORL R12, R12
	XORL AX, AX

chunk:
	LEAQ      32(R11), DX
	CMPQ      DX, R8
	JA        tail
	VMOVDQU   (SI)(R11*1), Y14
	VPCMPEQB  Y9, Y14, Y14
	VPMOVMSKB Y14, AX
	NOTL      AX

bits:
	TESTL   AX, AX
	JZ      nextchunk
	XORL    DX, DX                  // BSF merges into DX: cut its chain to the last row's
	BSFL    AX, DX
	LEAL    -1(AX), CX
	ANDL    CX, AX                  // clear the lowest set bit
	ADDQ    R11, DX                 // DX = row
	MOVBQSX (SI)(DX*1), CX          // CX = int8(input[row])
	IMULQ   R9, DX
	ADDQ    BX, DX                  // DX = the tile's weights in that row
	TESTQ   R12, R12
	JNZ     pair
	MOVQ    DX, R12
	MOVWLZX CX, R13
	JMP     bits

pair:
	SHLL         $16, CX
	ORL          R13, CX            // iv0 in the low word, iv1 in the high
	VMOVD        CX, X8
	VPBROADCASTD X8, Y8
	CMPQ         R14, $32
	JA           mac64
	JE           mac32
	CMPQ         R14, $16
	JE           mac16
	VPMOVSXBW    (R12), X10
	VPMOVSXBW    (DX), X11
	VPUNPCKLWD   X11, X10, X12
	VPUNPCKHWD   X11, X10, X13
	VINSERTI128  $1, X13, Y12, Y12
	VPMADDWD     Y8, Y12, Y12
	VPADDD       Y12, Y0, Y0
	JMP          paired

mac64:
	MAC16(48, Y6, Y7)
	MAC16(32, Y4, Y5)

mac32:
	MAC16(16, Y2, Y3)

mac16:
	MAC16(0, Y0, Y1)

paired:
	XORL R12, R12
	JMP  bits

nextchunk:
	ADDQ $32, R11
	JMP  chunk

	// Fewer than 32 rows are left, in ascending address order as pieces of
	// 16, 8, 4, 2 and 1 bytes (those the count has). They are read from the
	// end of the input backwards, each shifting the mask up by its size.
tail:
	MOVQ  R8, CX
	SUBQ  R11, CX                   // CX = rows left; <= 0 after the tail ran
	JLE   flush
	LEAQ  (SI)(R8*1), DX            // DX = end of the unread input
	TESTB $1, CL
	JZ    tail2
	DECQ  DX
	CMPB  (DX), $1                  // carry = the byte is zero
	SBBL  $-1, AX

tail2:
	TESTB $2, CL
	JZ    tail4
	SUBQ  $2, DX
	ADDL  AX, AX
	CMPB  1(DX), $1
	SBBL  $-1, AX
	ADDL  AX, AX
	CMPB  (DX), $1
	SBBL  $-1, AX

tail4:
	TESTB $4, CL
	JZ    tail8
	SUBQ  $4, DX
	VMOVD (DX), X14
	TAILPIECE(4)

tail8:
	TESTB $8, CL
	JZ    tail16
	SUBQ  $8, DX
	VMOVQ (DX), X14
	TAILPIECE(8)

tail16:
	TESTB $16, CL
	JZ    bits
	VMOVDQU (SI)(R11*1), X14
	TAILPIECE(16)
	JMP   bits

	// The input is consumed. An unpaired row goes through the pair code with
	// itself as the second row at iv1 = 0, and comes back here with R12 clear.
flush:
	TESTQ R12, R12
	JZ    store
	MOVQ  R12, DX
	XORL  CX, CX
	JMP   pair

store:
	CMPQ    R14, $32
	JA      store64
	JE      store32
	CMPQ    R14, $16
	JE      store16
	VMOVDQU Y0, (DI)
	JMP     next

store64:
	STOREACC16(192, 224, Y6, Y7)
	STOREACC16(128, 160, Y4, Y5)

store32:
	STOREACC16(64, 96, Y2, Y3)

store16:
	STOREACC16(0, 32, Y0, Y1)

next:
	ADDQ R14, BX
	LEAQ (DI)(R14*4), DI
	SUBQ R14, R10
	JMP  tile

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
