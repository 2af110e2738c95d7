#include "textflag.h"

// AVX2 kernels; see kernels_amd64.go. 256-bit VEX arithmetic and no FMA: each
// split accumulator of a Go loop is one lane of a YMM register. dotGo's s0..s3
// are one register; the [even, odd] accumulators of a centerProjectGo or
// syrkRowsGo output are two lanes, and two outputs share a register. Odd
// tails go to the lane Go adds them to, so every result is bit-identical to
// the Go loop. (When both operands of a multiply or add are NaN, x86 returns
// the first one's payload, and Go's register allocator picks that order per
// instruction; a NaN result matches as a NaN.) Loads and stores are
// unaligned, and every exit runs VZEROUPPER.

// QUADS sets AX = 0 and BX = CX rounded down to a multiple of 4, and jumps to
// TAIL when that is 0. NEXT4 steps AX by four while below BX; TAILCHECK and
// NEXT1 walk the single elements up to CX.
#define QUADS(TAIL) XORQ AX, AX; MOVQ CX, BX; ANDQ $~3, BX; JZ TAIL
#define NEXT4(LOOP) ADDQ $4, AX; CMPQ AX, BX; JLT LOOP
#define TAILCHECK(DONE) CMPQ AX, CX; JGE DONE
#define NEXT1(TAIL) INCQ AX; JMP TAIL

// HSUM sets the low lane of X to its low lane plus its high lane, the a0+a1
// that closes a pair of split accumulators. T is scratch.
#define HSUM(X, T) VUNPCKHPD X, X, T; VADDSD T, X, X

// ADDPROD adds V·B into ACC, packed or scalar as MUL and ADD are; T is scratch.
#define ADDPROD(MUL, ADD, V, B, ACC, T) MUL B, V, T; ADD T, ACC, ACC

// DOTCORE is dotGo over CX elements at XP and YP: X0's low lane gets
// (s0+s1) + (s2+s3), with s0..s3 the lanes of Y0 and the tail added to s0.
// Clobbers AX, BX, Y0-Y2. Used once per TEXT block, since labels are local
// to a function.
#define DOTCORE(XP, YP) \
	VXORPD	Y0, Y0, Y0; \
	QUADS(dotsplit); \
dotloop: \
	VMOVUPD	(XP)(AX*8), Y1; \
	ADDPROD(VMULPD, VADDPD, Y1, (YP)(AX*8), Y0, Y1); \
	NEXT4(dotloop); \
dotsplit: \
	VEXTRACTF128	$1, Y0, X1; \
dottail: \
	TAILCHECK(dotdone); \
	VMOVSD	(XP)(AX*8), X2; \
	ADDPROD(VMULSD, VADDSD, X2, (YP)(AX*8), X0, X2); \
	NEXT1(dottail); \
dotdone: \
	HSUM(X0, X2); \
	HSUM(X1, X2); \
	VADDSD	X1, X0, X0

// A sweep runs the vector at DI (CX elements) against up to five rows in one
// pass, four elements per step in Y4. Pair A (rows R12, R13) accumulates in
// Y0 and pair B (R14, R15) in Y1, each lane pair being one output's [even,
// odd] accumulators; the row at R9 is a dotGo output in Y2's four lanes. A
// slot with no output points at DI, and its result is dropped.

// PAIRDOT adds V·B0 and V·B1 into ACC = [B0's even, odd | B1's even, odd]:
// VPERM2F128 takes the products' (i, i+1) halves, added first, and their
// (i+2, i+3) halves, added second, as the Go loop's two pair steps do.
#define PAIRDOT(V, B0, B1, ACC, T0, T1, T2) \
	VMULPD	B0, V, T0; \
	VMULPD	B1, V, T1; \
	VPERM2F128	$0x20, T1, T0, T2; \
	VPERM2F128	$0x31, T1, T0, T0; \
	VADDPD	T2, ACC, ACC; \
	VADDPD	T0, ACC, ACC

#define SWEEP4 \
	PAIRDOT(Y4, (R12)(AX*8), (R13)(AX*8), Y0, Y5, Y6, Y7); \
	PAIRDOT(Y4, (R14)(AX*8), (R15)(AX*8), Y1, Y8, Y9, Y10); \
	ADDPROD(VMULPD, VADDPD, Y4, (R9)(AX*8), Y2, Y11)

// After the 4-wide steps the outputs move to X registers: pair A's are X0 and
// X5, pair B's X1 and X6, and the dotGo row's lanes are [s0, s1] in X2 and
// [s2, s3] in X7. SWEEP2 adds a pair of tail elements (X4) as one more pair
// step and two single steps into s0; SWEEP1 adds a last element to the even
// lanes and s0.
#define SWEEP2 \
	ADDPROD(VMULPD, VADDPD, X4, (R12)(AX*8), X0, X8); \
	ADDPROD(VMULPD, VADDPD, X4, (R13)(AX*8), X5, X8); \
	ADDPROD(VMULPD, VADDPD, X4, (R14)(AX*8), X1, X8); \
	ADDPROD(VMULPD, VADDPD, X4, (R15)(AX*8), X6, X8); \
	ADDPROD(VMULSD, VADDSD, X4, (R9)(AX*8), X2, X8); \
	VUNPCKHPD	X4, X4, X9; \
	ADDPROD(VMULSD, VADDSD, X9, 8(R9)(AX*8), X2, X8)

#define SWEEP1 \
	ADDPROD(VMULSD, VADDSD, X4, (R12)(AX*8), X0, X8); \
	ADDPROD(VMULSD, VADDSD, X4, (R13)(AX*8), X5, X8); \
	ADDPROD(VMULSD, VADDSD, X4, (R14)(AX*8), X1, X8); \
	ADDPROD(VMULSD, VADDSD, X4, (R15)(AX*8), X6, X8); \
	ADDPROD(VMULSD, VADDSD, X4, (R9)(AX*8), X2, X8)

// SWEEP is one sweep; LOAD4, LOAD2 and LOAD1 put the next four, two or one
// elements into Y4 or X4, and the rest of the arguments are its labels. It
// ends with each output closed in its low lane: a0+a1 in X0, X5, X1 and X6,
// (s0+s1) + (s2+s3) in X2.
#define SWEEP(LOOP, SPLIT, ODD, DONE, LOAD4, LOAD2, LOAD1) \
	VXORPD	Y0, Y0, Y0; \
	VXORPD	Y1, Y1, Y1; \
	VXORPD	Y2, Y2, Y2; \
	QUADS(SPLIT); \
LOOP: \
	LOAD4; \
	SWEEP4; \
	NEXT4(LOOP); \
SPLIT: \
	VEXTRACTF128	$1, Y0, X5; \
	VEXTRACTF128	$1, Y1, X6; \
	VEXTRACTF128	$1, Y2, X7; \
	TESTQ	$2, CX; \
	JZ	ODD; \
	LOAD2; \
	SWEEP2; \
	ADDQ	$2, AX; \
ODD: \
	TESTQ	$1, CX; \
	JZ	DONE; \
	LOAD1; \
	SWEEP1; \
DONE: \
	HSUM(X0, X8); \
	HSUM(X5, X8); \
	HSUM(X1, X8); \
	HSUM(X6, X8); \
	HSUM(X2, X8); \
	HSUM(X7, X8); \
	VADDSD	X7, X2, X2

#define PLAIN4 VMOVUPD (DI)(AX*8), Y4
#define PLAIN2 VMOVUPD (DI)(AX*8), X4
#define PLAIN1 VMOVSD (DI)(AX*8), X4

// CENTER4, CENTER2 and CENTER1 form y = x − mean (x at SI, mean at DX), store
// it at DI and add y² into ‖y‖²'s [s0, s1] lanes in X3.
#define CENTER4 \
	VMOVUPD	(SI)(AX*8), Y4; \
	VSUBPD	(DX)(AX*8), Y4, Y4; \
	VMOVUPD	Y4, (DI)(AX*8); \
	VMULPD	Y4, Y4, Y12; \
	VEXTRACTF128	$1, Y12, X13; \
	VADDPD	X12, X3, X3; \
	VADDPD	X13, X3, X3
#define CENTER2 \
	VMOVUPD	(SI)(AX*8), X4; \
	VSUBPD	(DX)(AX*8), X4, X4; \
	VMOVUPD	X4, (DI)(AX*8); \
	ADDPROD(VMULPD, VADDPD, X4, X4, X3, X12)
#define CENTER1 \
	VMOVSD	(SI)(AX*8), X4; \
	VSUBSD	(DX)(AX*8), X4, X4; \
	VMOVSD	X4, (DI)(AX*8); \
	ADDPROD(VMULSD, VADDSD, X4, X4, X3, X12)

// ROWS points the slots at outputs O.. of M, the first of them at row R8
// (rows R11 bytes apart): pair A takes two [even, odd] outputs when two
// remain, pair B the next two when four remain, and R9 the last output when
// M is odd and this sweep reaches it. Other slots point at DI. Sets AX to
// M − O.
#define ROWS(M, O) \
	MOVQ	M, AX; \
	SUBQ	O, AX; \
	LEAQ	-1(AX), R9; \
	IMULQ	R11, R9; \
	ADDQ	R8, R9; \
	CMPQ	AX, $5; \
	CMOVQGT	DI, R9; \
	TESTQ	$1, AX; \
	CMOVQEQ	DI, R9; \
	CMPQ	AX, $2; \
	MOVQ	R8, R12; \
	CMOVQLT	DI, R12; \
	LEAQ	(R8)(R11*1), R13; \
	CMOVQLT	DI, R13; \
	CMPQ	AX, $4; \
	LEAQ	(R13)(R11*1), R14; \
	CMOVQLT	DI, R14; \
	LEAQ	(R14)(R11*1), R15; \
	CMOVQLT	DI, R15

// func dotAVX2(x, y []float64) float64
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ	x_base+0(FP), SI
	MOVQ	x_len+8(FP), CX
	MOVQ	y_base+24(FP), DI
	DOTCORE(SI, DI)
	VMOVSD	X0, ret+48(FP)
	VZEROUPPER
	RET

// func lerpAVX2(dst []float64, a float64, x []float64, b float64, y []float64)
TEXT ·lerpAVX2(SB), NOSPLIT, $0-88
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	VBROADCASTSD	a+24(FP), Y0
	MOVQ	x_base+32(FP), SI
	VBROADCASTSD	b+56(FP), Y1
	MOVQ	y_base+64(FP), DX
	QUADS(tail)

loop:
	VMULPD	(SI)(AX*8), Y0, Y2
	ADDPROD(VMULPD, VADDPD, Y1, (DX)(AX*8), Y2, Y3)
	VMOVUPD	Y2, (DI)(AX*8)
	NEXT4(loop)

tail:
	TAILCHECK(done)
	VMULSD	(SI)(AX*8), X0, X2
	ADDPROD(VMULSD, VADDSD, X1, (DX)(AX*8), X2, X3)
	VMOVSD	X2, (DI)(AX*8)
	NEXT1(tail)

done:
	VZEROUPPER
	RET

// func centerProjectAVX2(y, coef, x, mean, bd []float64) float64
//
// coef[j] = y·bd[j,:] in sweeps over y of up to four [even, odd] outputs, with
// an odd k's last, dotGo output in the sweep that reaches it; the first sweep
// also forms y = x − mean and ‖y‖². Every output keeps its own accumulators,
// so the grouping does not change its operations. R8 walks the rows of bd
// and R10 is j.
TEXT ·centerProjectAVX2(SB), NOSPLIT, $0-128
	MOVQ	y_base+0(FP), DI
	MOVQ	x_base+48(FP), SI
	MOVQ	x_len+56(FP), CX
	MOVQ	mean_base+72(FP), DX
	MOVQ	bd_base+96(FP), R8
	MOVQ	CX, R11
	SHLQ	$3, R11
	XORQ	R10, R10
	ROWS(coef_len+32(FP), R10)
	VXORPD	X3, X3, X3
	SWEEP(fusedloop, fusedsplit, fusedodd, fuseddone, CENTER4, CENTER2, CENTER1)
	HSUM(X3, X8)
	VMOVSD	X3, ret+120(FP)
	JMP	store

sweep:
	ROWS(coef_len+32(FP), R10)
	SWEEP(loop, split, odd, done, PLAIN4, PLAIN2, PLAIN1)

store:
	MOVQ	coef_base+24(FP), SI
	MOVQ	coef_len+32(FP), AX
	SUBQ	R10, AX
	CMPQ	AX, $2
	JLT	lone
	VMOVSD	X0, (SI)(R10*8)
	VMOVSD	X5, 8(SI)(R10*8)
	CMPQ	AX, $4
	JLT	lone
	VMOVSD	X1, 16(SI)(R10*8)
	VMOVSD	X6, 24(SI)(R10*8)

lone:
	CMPQ	AX, $5
	JGT	next
	TESTQ	$1, AX
	JZ	projectdone
	ADDQ	R10, AX
	VMOVSD	X2, -8(SI)(AX*8)

projectdone:
	VZEROUPPER
	RET

next:
	ADDQ	$4, R10
	LEAQ	(R8)(R11*4), R8
	JMP	sweep

// func syrkRowsAVX2(dd, ad []float64, n, kk, r int)
//
// Row i (SI) of the block: the outputs j = i..r−1 are a row i (DI) against a
// rows j, in sweeps as in centerProject; a lone j = i = r−1 runs DOTCORE. Each
// output goes to dd[i*n+j] and its mirror dd[j*n+i]. R8 walks the a rows j
// and R10 is j.
TEXT ·syrkRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ	ad_base+24(FP), DI
	MOVQ	kk+56(FP), CX
	MOVQ	CX, R11
	SHLQ	$3, R11
	XORQ	SI, SI

row:
	CMPQ	SI, r+64(FP)
	JGE	syrkdone
	MOVQ	SI, R10
	MOVQ	DI, R8
	LEAQ	1(SI), AX
	CMPQ	AX, r+64(FP)
	JLT	sweep
	DOTCORE(DI, DI)
	VMOVAPD	X0, X2
	JMP	store

sweep:
	ROWS(r+64(FP), R10)
	SWEEP(loop, split, odd, done, PLAIN4, PLAIN2, PLAIN1)

store:
	MOVQ	dd_base+0(FP), R12
	MOVQ	n+48(FP), R13
	MOVQ	SI, R14
	IMULQ	R13, R14
	ADDQ	R10, R14
	MOVQ	R10, R15
	IMULQ	R13, R15
	ADDQ	SI, R15
	MOVQ	r+64(FP), AX
	SUBQ	R10, AX
	CMPQ	AX, $2
	JLT	lone
	VMOVSD	X0, (R12)(R14*8)
	VMOVSD	X5, 8(R12)(R14*8)
	VMOVSD	X0, (R12)(R15*8)
	ADDQ	R13, R15
	VMOVSD	X5, (R12)(R15*8)
	CMPQ	AX, $4
	JLT	lone
	ADDQ	R13, R15
	VMOVSD	X1, 16(R12)(R14*8)
	VMOVSD	X6, 24(R12)(R14*8)
	VMOVSD	X1, (R12)(R15*8)
	ADDQ	R13, R15
	VMOVSD	X6, (R12)(R15*8)

lone:
	CMPQ	AX, $5
	JGT	next
	TESTQ	$1, AX
	JZ	nextrow
	LEAQ	-1(R10)(AX*1), R15
	LEAQ	-1(R14)(AX*1), R14
	IMULQ	R13, R15
	ADDQ	SI, R15
	VMOVSD	X2, (R12)(R14*8)
	VMOVSD	X2, (R12)(R15*8)

nextrow:
	INCQ	SI
	ADDQ	R11, DI
	JMP	row

next:
	ADDQ	$4, R10
	LEAQ	(R8)(R11*4), R8
	JMP	sweep

syrkdone:
	VZEROUPPER
	RET

// PANELSTEP does C += V0·B0 + V1·B1 + V2·B2 + V3·B3, summed left to right as
// panel2x4Go does, through T; U is scratch. MUL, ADD and MOV are packed on Y
// registers for four columns or scalar on X registers for one.
#define PANELSTEP(MUL, ADD, MOV, V0, V1, V2, V3, B0, B1, B2, B3, C, T, U) \
	MUL	B0, V0, T; \
	ADDPROD(MUL, ADD, V1, B1, T, U); \
	ADDPROD(MUL, ADD, V2, B2, T, U); \
	ADDPROD(MUL, ADD, V3, B3, T, U); \
	ADD	C, T, T; \
	MOV	T, C

// AXPYSTEP does C += V·B through T.
#define AXPYSTEP(MUL, ADD, MOV, V, B, C, T) MUL B, V, T; ADD C, T, T; MOV T, C

// func panel2x4AVX2(c0, c1, v0, v1, bk0, bk1, bk2, bk3 []float64)
TEXT ·panel2x4AVX2(SB), NOSPLIT, $0-192
	MOVQ	c0_base+0(FP), DI
	MOVQ	c1_base+24(FP), R8
	MOVQ	v0_base+48(FP), SI
	MOVQ	v1_base+72(FP), DX
	MOVQ	bk0_base+96(FP), R9
	MOVQ	bk0_len+104(FP), CX
	MOVQ	bk1_base+120(FP), R10
	MOVQ	bk2_base+144(FP), R11
	MOVQ	bk3_base+168(FP), R12
	VBROADCASTSD	(SI), Y0
	VBROADCASTSD	8(SI), Y1
	VBROADCASTSD	16(SI), Y2
	VBROADCASTSD	24(SI), Y3
	VBROADCASTSD	(DX), Y4
	VBROADCASTSD	8(DX), Y5
	VBROADCASTSD	16(DX), Y6
	VBROADCASTSD	24(DX), Y7
	QUADS(tail)

loop:
	VMOVUPD	(R9)(AX*8), Y8
	VMOVUPD	(R10)(AX*8), Y9
	VMOVUPD	(R11)(AX*8), Y10
	VMOVUPD	(R12)(AX*8), Y11
	PANELSTEP(VMULPD, VADDPD, VMOVUPD, Y0, Y1, Y2, Y3, Y8, Y9, Y10, Y11, (DI)(AX*8), Y12, Y13)
	PANELSTEP(VMULPD, VADDPD, VMOVUPD, Y4, Y5, Y6, Y7, Y8, Y9, Y10, Y11, (R8)(AX*8), Y14, Y15)
	NEXT4(loop)

tail:
	TAILCHECK(done)
	PANELSTEP(VMULSD, VADDSD, VMOVSD, X0, X1, X2, X3, (R9)(AX*8), (R10)(AX*8), (R11)(AX*8), (R12)(AX*8), (DI)(AX*8), X12, X13)
	PANELSTEP(VMULSD, VADDSD, VMOVSD, X4, X5, X6, X7, (R9)(AX*8), (R10)(AX*8), (R11)(AX*8), (R12)(AX*8), (R8)(AX*8), X14, X15)
	NEXT1(tail)

done:
	VZEROUPPER
	RET

// func panel1x4AVX2(c0, v, bk0, bk1, bk2, bk3 []float64)
TEXT ·panel1x4AVX2(SB), NOSPLIT, $0-144
	MOVQ	c0_base+0(FP), DI
	MOVQ	v_base+24(FP), SI
	MOVQ	bk0_base+48(FP), R9
	MOVQ	bk0_len+56(FP), CX
	MOVQ	bk1_base+72(FP), R10
	MOVQ	bk2_base+96(FP), R11
	MOVQ	bk3_base+120(FP), R12
	VBROADCASTSD	(SI), Y0
	VBROADCASTSD	8(SI), Y1
	VBROADCASTSD	16(SI), Y2
	VBROADCASTSD	24(SI), Y3
	QUADS(tail)

loop:
	PANELSTEP(VMULPD, VADDPD, VMOVUPD, Y0, Y1, Y2, Y3, (R9)(AX*8), (R10)(AX*8), (R11)(AX*8), (R12)(AX*8), (DI)(AX*8), Y4, Y5)
	NEXT4(loop)

tail:
	TAILCHECK(done)
	PANELSTEP(VMULSD, VADDSD, VMOVSD, X0, X1, X2, X3, (R9)(AX*8), (R10)(AX*8), (R11)(AX*8), (R12)(AX*8), (DI)(AX*8), X4, X5)
	NEXT1(tail)

done:
	VZEROUPPER
	RET

// func panel1x1AVX2(c0 []float64, v float64, bk []float64)
TEXT ·panel1x1AVX2(SB), NOSPLIT, $0-56
	MOVQ	c0_base+0(FP), DI
	VBROADCASTSD	v+24(FP), Y0
	MOVQ	bk_base+32(FP), R9
	MOVQ	bk_len+40(FP), CX
	QUADS(tail)

loop:
	AXPYSTEP(VMULPD, VADDPD, VMOVUPD, Y0, (R9)(AX*8), (DI)(AX*8), Y1)
	NEXT4(loop)

tail:
	TAILCHECK(done)
	AXPYSTEP(VMULSD, VADDSD, VMOVSD, X0, (R9)(AX*8), (DI)(AX*8), X1)
	NEXT1(tail)

done:
	VZEROUPPER
	RET

// FINITE ORs x·0 over the CX values that LOAD4 and LOAD1 put into Y2 or X2
// (four or one at a time, from SI) into Y0, then folds the lanes into X0 and
// compares it with itself: x·0 is ±0 for a finite x and NaN otherwise, so
// the OR is ±0 exactly while every value is finite, and the compare is
// unordered (PF set) otherwise. Labels are local, as in DOTCORE.
#define FINITE(LOAD4, LOAD1) \
	VXORPD	Y0, Y0, Y0; \
	VXORPD	Y1, Y1, Y1; \
	QUADS(finitesplit); \
finiteloop: \
	LOAD4; \
	VMULPD	Y1, Y2, Y2; \
	VORPD	Y2, Y0, Y0; \
	NEXT4(finiteloop); \
finitesplit: \
	VEXTRACTF128	$1, Y0, X2; \
	VORPD	X2, X0, X0; \
finitetail: \
	TAILCHECK(finitedone); \
	LOAD1; \
	VMULSD	X1, X2, X2; \
	VORPD	X2, X0, X0; \
	NEXT1(finitetail); \
finitedone: \
	VUNPCKHPD	X0, X0, X2; \
	VORPD	X2, X0, X0; \
	VUCOMISD	X0, X0

#define LOAD4 VMOVUPD (SI)(AX*8), Y2
#define LOAD1 VMOVSD (SI)(AX*8), X2
#define COPY4 LOAD4; VMOVUPD Y2, (DI)(AX*8)
#define COPY1 LOAD1; VMOVSD X2, (DI)(AX*8)

// func allFiniteAVX2(x []float64) bool
TEXT ·allFiniteAVX2(SB), NOSPLIT, $0-25
	MOVQ	x_base+0(FP), SI
	MOVQ	x_len+8(FP), CX
	FINITE(LOAD4, LOAD1)
	SETPC	ret+24(FP)
	VZEROUPPER
	RET

// func copyFiniteAVX2(dst, src []float64) bool
TEXT ·copyFiniteAVX2(SB), NOSPLIT, $0-49
	MOVQ	dst_base+0(FP), DI
	MOVQ	src_base+24(FP), SI
	MOVQ	src_len+32(FP), CX
	FINITE(COPY4, COPY1)
	SETPC	ret+48(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	eaxArg+0(FP), AX
	MOVL	ecxArg+4(FP), CX
	CPUID
	MOVL	AX, eax+8(FP)
	MOVL	BX, ebx+12(FP)
	MOVL	CX, ecx+16(FP)
	MOVL	DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL	$0, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	MOVL	DX, edx+4(FP)
	RET
