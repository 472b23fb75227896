#include "textflag.h"

// func foldAVX2(dst, bank []uint64, srcs []int) bool
//
// len(dst) is a power of two of at least 16 (a counter's length is a
// power of two; the Go wrapper checks the minimum), and every source's
// words bank[o : o+len(dst)] lie inside bank (the wrapper checks each).
// Each block of 16 words stays in Y0-Y3 while every source folds in
// with VPMAXUB. Y8 collects new XOR old over every block, so dst grew
// exactly when Y8 is non-zero.
TEXT ·foldAVX2(SB), NOSPLIT, $0-73
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ bank_base+24(FP), BX
	MOVQ srcs_base+48(FP), R8
	MOVQ srcs_len+56(FP), R9
	VPXOR Y8, Y8, Y8

block:
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	MOVQ R8, SI
	MOVQ R9, DX
	TESTQ DX, DX
	JZ   store

source:
	MOVQ (SI), AX
	VPMAXUB 0(BX)(AX*8), Y0, Y0
	VPMAXUB 32(BX)(AX*8), Y1, Y1
	VPMAXUB 64(BX)(AX*8), Y2, Y2
	VPMAXUB 96(BX)(AX*8), Y3, Y3
	ADDQ $8, SI
	DECQ DX
	JNZ  source

store:
	VPXOR 0(DI), Y0, Y4
	VPXOR 32(DI), Y1, Y5
	VPXOR 64(DI), Y2, Y6
	VPXOR 96(DI), Y3, Y7
	VPOR  Y4, Y5, Y4
	VPOR  Y6, Y7, Y6
	VPOR  Y4, Y8, Y8
	VPOR  Y6, Y8, Y8
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, BX
	SUBQ $16, CX
	JNZ  block

	VPTEST Y8, Y8
	SETNE  ret+72(FP)
	VZEROUPPER
	RET

// func scanAVX2(w []uint64) (zeros int, or, units uint64)
//
// len(w) is a positive multiple of 4 (the Go wrapper passes 16 words
// or more). Each 32-byte block adds its zero registers (VPCMPEQB
// against zero, VPMOVMSKB, POPCNT) to zeros and ORs into Y1; every
// register r adds 2^31 >> r to one of Y2's four lanes, r zero-extended
// to a shift count (VPMOVZXBQ, VPSRLVQ).
// A shift of 32 or more yields 0, so units is exact whenever every
// register is below 32 and is ignored otherwise.
TEXT ·scanAVX2(SB), NOSPLIT, $0-48
	MOVQ w_base+0(FP), SI
	MOVQ w_len+8(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	MOVL $0x80000000, AX
	VMOVQ AX, X3
	VPBROADCASTQ X3, Y3
	XORQ DX, DX

scan:
	VMOVDQU (SI), Y4
	VPOR Y4, Y1, Y1
	VPCMPEQB Y0, Y4, Y5
	VPMOVMSKB Y5, AX
	POPCNTL AX, AX
	ADDQ AX, DX
	VPMOVZXBQ 0(SI), Y4
	VPMOVZXBQ 4(SI), Y5
	VPMOVZXBQ 8(SI), Y6
	VPMOVZXBQ 12(SI), Y7
	VPSRLVQ Y4, Y3, Y4
	VPSRLVQ Y5, Y3, Y5
	VPSRLVQ Y6, Y3, Y6
	VPSRLVQ Y7, Y3, Y7
	VPADDQ Y4, Y5, Y4
	VPADDQ Y6, Y7, Y6
	VPADDQ Y4, Y6, Y4
	VPADDQ Y4, Y2, Y2
	VPMOVZXBQ 16(SI), Y4
	VPMOVZXBQ 20(SI), Y5
	VPMOVZXBQ 24(SI), Y6
	VPMOVZXBQ 28(SI), Y7
	VPSRLVQ Y4, Y3, Y4
	VPSRLVQ Y5, Y3, Y5
	VPSRLVQ Y6, Y3, Y6
	VPSRLVQ Y7, Y3, Y7
	VPADDQ Y4, Y5, Y4
	VPADDQ Y6, Y7, Y6
	VPADDQ Y4, Y6, Y4
	VPADDQ Y4, Y2, Y2
	ADDQ $32, SI
	SUBQ $4, CX
	JNZ  scan

	VEXTRACTI128 $1, Y1, X4
	VPOR X4, X1, X1
	VPSHUFD $0x4E, X1, X4
	VPOR X4, X1, X1
	VMOVQ X1, AX
	VEXTRACTI128 $1, Y2, X4
	VPADDQ X4, X2, X2
	VPSHUFD $0x4E, X2, X4
	VPADDQ X4, X2, X2
	VMOVQ X2, BX
	MOVQ DX, zeros+24(FP)
	MOVQ AX, or+32(FP)
	MOVQ BX, units+40(FP)
	VZEROUPPER
	RET
