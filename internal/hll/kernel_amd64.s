#include "textflag.h"

// func stepAVX2(next, cur []uint64, words, linearZeros int, list []int32, start, offs []int, out []Growth) int
//
// words is a power of two of at least 16, both banks hold the counters
// of every listed vertex, each vertex v's sources are the word offsets
// offs[start[v]:start[v+1]] of counters inside cur, and out has room for
// one Growth per listed vertex (Step and Add check all of it). R10 holds
// next - cur, so a counter's store address is its load address plus
// R10.
//
// For each listed vertex, each block of 16 words stays in Y0-Y3 while
// every source folds in with VPMAXUB, and is then stored in next; Y8
// collects new XOR old over the counter's blocks, so the counter grew
// exactly when Y8 is non-zero. A grown counter is scanned from next,
// where its words were just stored: each 32-byte block adds its zero
// registers (VPCMPEQB against zero, VPMOVMSKB, POPCNT) to DX and ORs
// into Y1. Only if the zeros stay below linearZeros and no register
// reaches 32 (no OR bit 5 or 6) does a second pass sum the units: every
// register r adds 2^31 >> r to one of Y2's four lanes, r zero-extended
// to a shift count (VPMOVZXBQ, VPSRLVQ); otherwise the units are 0. The
// Growth {V, zeros, or, units} is then written at R15, which advances
// by its 32 bytes.
TEXT ·stepAVX2(SB), NOSPLIT, $0-168
	MOVQ next_base+0(FP), R10
	MOVQ cur_base+24(FP), R11
	SUBQ R11, R10
	MOVQ words+48(FP), R12
	MOVQ list_base+64(FP), SI
	MOVQ list_len+72(FP), R13
	MOVQ start_base+88(FP), R14
	MOVQ out_base+136(FP), R15
	MOVL $0x80000000, AX
	VMOVQ AX, X9
	VPBROADCASTQ X9, Y9
	VPXOR Y10, Y10, Y10
	TESTQ R13, R13
	JZ   done

vertex:
	MOVLQSX 0(SI), AX
	MOVQ    (R14)(AX*8), R8
	MOVQ    8(R14)(AX*8), R9
	MOVQ    offs_base+112(FP), DX
	LEAQ    (DX)(R8*8), R8
	LEAQ    (DX)(R9*8), R9
	IMULQ   R12, AX
	LEAQ    (R11)(AX*8), DI
	MOVQ    R11, BX
	MOVQ    R12, CX
	VPXOR   Y8, Y8, Y8

block:
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	MOVQ    R8, AX
	CMPQ    AX, R9
	JEQ     store

source:
	MOVQ    (AX), DX
	VPMAXUB 0(BX)(DX*8), Y0, Y0
	VPMAXUB 32(BX)(DX*8), Y1, Y1
	VPMAXUB 64(BX)(DX*8), Y2, Y2
	VPMAXUB 96(BX)(DX*8), Y3, Y3
	ADDQ    $8, AX
	CMPQ    AX, R9
	JNE     source

store:
	VPXOR   0(DI), Y0, Y4
	VPXOR   32(DI), Y1, Y5
	VPXOR   64(DI), Y2, Y6
	VPXOR   96(DI), Y3, Y7
	VPOR    Y4, Y5, Y4
	VPOR    Y6, Y7, Y6
	VPOR    Y4, Y8, Y8
	VPOR    Y6, Y8, Y8
	VMOVDQU Y0, 0(DI)(R10*1)
	VMOVDQU Y1, 32(DI)(R10*1)
	VMOVDQU Y2, 64(DI)(R10*1)
	VMOVDQU Y3, 96(DI)(R10*1)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $16, CX
	JNZ     block

	VPTEST Y8, Y8
	JZ     nextvertex

	// DI is one counter past the counter's start in cur; R8 gets its
	// start in next.
	MOVQ  R12, CX
	SHLQ  $3, CX
	SUBQ  CX, DI
	LEAQ  (DI)(R10*1), R8
	MOVQ  R8, DI
	MOVQ  R12, CX
	XORQ  DX, DX
	VPXOR Y1, Y1, Y1

zeros:
	VMOVDQU   (DI), Y4
	VPOR      Y4, Y1, Y1
	VPCMPEQB  Y10, Y4, Y5
	VPMOVMSKB Y5, AX
	POPCNTL   AX, AX
	ADDQ      AX, DX
	ADDQ      $32, DI
	SUBQ      $4, CX
	JNZ       zeros

	VEXTRACTI128 $1, Y1, X4
	VPOR         X4, X1, X1
	VPSHUFD      $0x4E, X1, X4
	VPOR         X4, X1, X1
	VMOVQ        X1, AX
	XORQ         BX, BX
	CMPQ         DX, linearZeros+56(FP)
	JGE          grew
	MOVQ         $0x6060606060606060, CX
	TESTQ        CX, AX
	JNZ          grew
	MOVQ         R8, DI
	MOVQ         R12, CX
	VPXOR        Y2, Y2, Y2

units:
	VPMOVZXBQ 0(DI), Y4
	VPMOVZXBQ 4(DI), Y5
	VPMOVZXBQ 8(DI), Y6
	VPMOVZXBQ 12(DI), Y7
	VPSRLVQ   Y4, Y9, Y4
	VPSRLVQ   Y5, Y9, Y5
	VPSRLVQ   Y6, Y9, Y6
	VPSRLVQ   Y7, Y9, Y7
	VPADDQ    Y4, Y5, Y4
	VPADDQ    Y6, Y7, Y6
	VPADDQ    Y4, Y6, Y4
	VPADDQ    Y4, Y2, Y2
	VPMOVZXBQ 16(DI), Y4
	VPMOVZXBQ 20(DI), Y5
	VPMOVZXBQ 24(DI), Y6
	VPMOVZXBQ 28(DI), Y7
	VPSRLVQ   Y4, Y9, Y4
	VPSRLVQ   Y5, Y9, Y5
	VPSRLVQ   Y6, Y9, Y6
	VPSRLVQ   Y7, Y9, Y7
	VPADDQ    Y4, Y5, Y4
	VPADDQ    Y6, Y7, Y6
	VPADDQ    Y4, Y6, Y4
	VPADDQ    Y4, Y2, Y2
	ADDQ      $32, DI
	SUBQ      $4, CX
	JNZ       units

	VEXTRACTI128 $1, Y2, X4
	VPADDQ       X4, X2, X2
	VPSHUFD      $0x4E, X2, X4
	VPADDQ       X4, X2, X2
	VMOVQ        X2, BX

grew:
	MOVLQSX 0(SI), CX
	MOVQ    CX, 0(R15)
	MOVQ    DX, 8(R15)
	MOVQ    AX, 16(R15)
	MOVQ    BX, 24(R15)
	ADDQ    $32, R15

nextvertex:
	ADDQ $4, SI
	DECQ R13
	JNZ  vertex

done:
	MOVQ R15, AX
	SUBQ out_base+136(FP), AX
	SHRQ $5, AX
	MOVQ AX, ret+160(FP)
	VZEROUPPER
	RET
