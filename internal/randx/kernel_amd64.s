#include "textflag.h"

// func seedAVX2(vec *[rngLen]int64, x uint64)
//
// x is the reduced seed, in [1, 2³¹−1). Each step builds four register
// words i..i+3 in the lanes of Y0-Y2: VPMULUDQ multiplies x by the
// three power columns seedPow[c][i:i+4] (both factors below 2³¹, so
// the low-dword product is the whole 62-bit product), and each product
// t folds as mulMod31 does, t&(2³¹−1) + t>>31, minus 2³¹−1 where that
// sum is not below it (VPCMPGTQ, VPANDN, VPSUBQ; the sums are below
// 2³³, so the signed compare is exact). The three residues, shifted by
// 40, 20 and 0, XOR with rngCooked[i:i+4] into vec[i:i+4]. 151 steps
// build words 0-603; Seed builds the last three.
TEXT ·seedAVX2(SB), NOSPLIT, $0-16
	MOVQ vec+0(FP), DI
	MOVQ x+8(FP), AX
	VMOVQ AX, X15
	VPBROADCASTQ X15, Y15
	MOVQ $0x7fffffff, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14
	LEAQ ·seedPow(SB), SI
	LEAQ ·rngCooked(SB), DX
	MOVQ $151, CX

word:
	// Columns are 607 words apart: 4856 bytes.
	VPMULUDQ 0(SI), Y15, Y0
	VPMULUDQ 4856(SI), Y15, Y1
	VPMULUDQ 9712(SI), Y15, Y2

	VPSRLQ   $31, Y0, Y3
	VPAND    Y14, Y0, Y0
	VPADDQ   Y3, Y0, Y0
	VPCMPGTQ Y0, Y14, Y3
	VPANDN   Y14, Y3, Y3
	VPSUBQ   Y3, Y0, Y0

	VPSRLQ   $31, Y1, Y4
	VPAND    Y14, Y1, Y1
	VPADDQ   Y4, Y1, Y1
	VPCMPGTQ Y1, Y14, Y4
	VPANDN   Y14, Y4, Y4
	VPSUBQ   Y4, Y1, Y1

	VPSRLQ   $31, Y2, Y5
	VPAND    Y14, Y2, Y2
	VPADDQ   Y5, Y2, Y2
	VPCMPGTQ Y2, Y14, Y5
	VPANDN   Y14, Y5, Y5
	VPSUBQ   Y5, Y2, Y2

	VPSLLQ  $40, Y0, Y0
	VPSLLQ  $20, Y1, Y1
	VPXOR   Y1, Y0, Y0
	VPXOR   Y2, Y0, Y0
	VPXOR   0(DX), Y0, Y0
	VMOVDQU Y0, 0(DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     word

	VZEROUPPER
	RET

// func coinsAVX2(feed, tap []int64, out []bool, th []uint64) (high uint64)
//
// len(out) is a positive multiple of 4, and feed, tap and th are as
// long. Draw j writes feed[k−1−j], so a step takes the four draws
// j..j+3 from the top of feed and tap down: VPADDQ of the tap words
// into the feed words, stored back, holds draw j+3 in lane 0 and draw
// j in lane 3. A draw reads a register written at least 273 draws
// earlier, so four draws per step read what the scalar loop reads.
// Every compare runs with the top bit flipped, which makes the signed
// VPCMPGTQ an unsigned one: a sum x becomes v' = x | 2⁶³, the low 63
// bits v plus 2⁶³, and th[j] becomes th[j] ^ 2⁶³. VPERMQ reverses v'
// into stream order; the coins are th' > v', whose four sign bits
// (VMOVMSKPD) spread to four bytes of 0 or 1 (one multiply and mask)
// and land in out[j:j+4]. Y13 ORs (2⁶³−2⁹−1+2⁶³) − v' = 2⁶³−2⁹−1 − v
// over every draw, the redraw word coinStretch returns.
TEXT ·coinsAVX2(SB), NOSPLIT, $0-104
	MOVQ feed_base+0(FP), SI
	MOVQ tap_base+24(FP), BX
	MOVQ out_base+48(FP), DI
	MOVQ out_len+56(FP), CX
	MOVQ th_base+72(FP), DX
	LEAQ -32(SI)(CX*8), SI
	LEAQ -32(BX)(CX*8), BX
	MOVQ $0x8000000000000000, AX
	VMOVQ AX, X15
	VPBROADCASTQ X15, Y15
	MOVQ $-513, AX
	VMOVQ AX, X14
	VPBROADCASTQ X14, Y14
	VPXOR Y13, Y13, Y13

draw:
	VMOVDQU   0(SI), Y0
	VPADDQ    0(BX), Y0, Y0
	VMOVDQU   Y0, 0(SI)
	VPOR      Y15, Y0, Y0
	VPERMQ    $0x1B, Y0, Y0
	VPSUBQ    Y0, Y14, Y1
	VPOR      Y1, Y13, Y13
	VPXOR     0(DX), Y15, Y2
	VPCMPGTQ  Y0, Y2, Y2
	VMOVMSKPD Y2, AX
	IMUL3L    $0x204081, AX, AX
	ANDL      $0x01010101, AX
	MOVL      AX, 0(DI)
	SUBQ      $32, SI
	SUBQ      $32, BX
	ADDQ      $32, DX
	ADDQ      $4, DI
	SUBQ      $4, CX
	JNZ       draw

	VEXTRACTI128 $1, Y13, X0
	VPOR         X0, X13, X0
	VPSHUFD      $0x4E, X0, X1
	VPOR         X1, X0, X0
	VMOVQ        X0, AX
	MOVQ         AX, high+96(FP)
	VZEROUPPER
	RET
