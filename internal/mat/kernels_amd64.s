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
// it at DI and add y² into ‖y‖²'s [s0, s1] lanes in X3; CENTERY4, CENTERY2
// and CENTERY1 are their last part, from y in Y4 or X4.
#define CENTERY4 \
	VMOVUPD	Y4, (DI)(AX*8); \
	VMULPD	Y4, Y4, Y12; \
	VEXTRACTF128	$1, Y12, X13; \
	VADDPD	X12, X3, X3; \
	VADDPD	X13, X3, X3
#define CENTERY2 \
	VMOVUPD	X4, (DI)(AX*8); \
	ADDPROD(VMULPD, VADDPD, X4, X4, X3, X12)
#define CENTERY1 \
	VMOVSD	X4, (DI)(AX*8); \
	ADDPROD(VMULSD, VADDSD, X4, X4, X3, X12)
#define CENTER4 VMOVUPD (SI)(AX*8), Y4; VSUBPD (DX)(AX*8), Y4, Y4; CENTERY4
#define CENTER2 VMOVUPD (SI)(AX*8), X4; VSUBPD (DX)(AX*8), X4, X4; CENTERY2
#define CENTER1 VMOVSD (SI)(AX*8), X4; VSUBSD (DX)(AX*8), X4, X4; CENTERY1

// MCENTER4, MCENTER2 and MCENTER1 are CENTER4, CENTER2 and CENTER1 with x
// also stored at R11 and y cleared to +0 where the mask (bytes at R10) is
// false. Each lane takes the step's mask bytes by a broadcast load (of only
// those bytes) and keeps its own through Y15's 0xff << 8i; it equals Y14's
// zero exactly in a missing bin, where VANDNPD clears y.
#define MCENTER(BCAST, MOV, SUB, M, Z, L, V) BCAST (R10)(AX*1), M; VPAND L, M, M; VPCMPEQQ Z, M, M; \
	MOV (SI)(AX*8), V; MOV V, (R11)(AX*8); SUB (DX)(AX*8), V, V; VANDNPD V, M, V
#define MCENTER4 MCENTER(VPBROADCASTD, VMOVUPD, VSUBPD, Y12, Y14, Y15, Y4); CENTERY4
#define MCENTER2 MCENTER(VPBROADCASTW, VMOVUPD, VSUBPD, X12, X14, X15, X4); CENTERY2
#define MCENTER1 MCENTER(VPBROADCASTB, VMOVSD, VSUBSD, X12, X14, X15, X4); CENTERY1

DATA laneBytes<>+0(SB)/8, $0xff
DATA laneBytes<>+8(SB)/8, $0xff00
DATA laneBytes<>+16(SB)/8, $0xff0000
DATA laneBytes<>+24(SB)/8, $0xff000000
GLOBL laneBytes<>(SB), RODATA|NOPTR, $32

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

// PROJECT is centerProject's sweeps after the first: from store, it stores
// the sweep's outputs to coef and runs the next sweep over y (DI) until every
// output is stored. Used once per TEXT block, as DOTCORE.
#define PROJECT \
sweep: \
	ROWS(coef_len+32(FP), R10); \
	SWEEP(loop, split, odd, done, PLAIN4, PLAIN2, PLAIN1); \
store: \
	MOVQ	coef_base+24(FP), SI; \
	MOVQ	coef_len+32(FP), AX; \
	SUBQ	R10, AX; \
	CMPQ	AX, $2; \
	JLT	lone; \
	VMOVSD	X0, (SI)(R10*8); \
	VMOVSD	X5, 8(SI)(R10*8); \
	CMPQ	AX, $4; \
	JLT	lone; \
	VMOVSD	X1, 16(SI)(R10*8); \
	VMOVSD	X6, 24(SI)(R10*8); \
lone: \
	CMPQ	AX, $5; \
	JGT	next; \
	TESTQ	$1, AX; \
	JZ	projectdone; \
	ADDQ	R10, AX; \
	VMOVSD	X2, -8(SI)(AX*8); \
projectdone: \
	VZEROUPPER; \
	RET; \
next: \
	ADDQ	$4, R10; \
	LEAQ	(R8)(R11*4), R8; \
	JMP	sweep

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

	PROJECT

// func centerProjectMaskedAVX2(y, coef, x, mean, bd, xp []float64, mask []bool) float64
//
// centerProjectAVX2 with MCENTER in the first sweep, during which R10 and R11
// hold the mask and xp (ROWS has already placed the slots), Y14 is zero and
// Y15 holds laneBytes.
TEXT ·centerProjectMaskedAVX2(SB), NOSPLIT, $0-176
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
	VPXOR	Y14, Y14, Y14
	VMOVDQU	laneBytes<>(SB), Y15
	MOVQ	xp_base+120(FP), R11
	MOVQ	mask_base+144(FP), R10
	SWEEP(fusedloop, fusedsplit, fusedodd, fuseddone, MCENTER4, MCENTER2, MCENTER1)
	XORQ	R10, R10
	MOVQ	CX, R11
	SHLQ	$3, R11
	HSUM(X3, X8)
	VMOVSD	X3, ret+168(FP)
	JMP	store

	PROJECT

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

#define COPY4 VMOVUPD (SI)(AX*8), Y2; VMOVUPD Y2, (DI)(AX*8)
#define COPY1 VMOVSD (SI)(AX*8), X2; VMOVSD X2, (DI)(AX*8)

// func copyFiniteAVX2(dst, src []float64) bool
TEXT ·copyFiniteAVX2(SB), NOSPLIT, $0-49
	MOVQ	dst_base+0(FP), DI
	MOVQ	src_base+24(FP), SI
	MOVQ	src_len+32(FP), CX
	FINITE(COPY4, COPY1)
	SETPC	ret+48(FP)
	VZEROUPPER
	RET

DATA maskBytes<>+0(SB)/4, $0x01010101
DATA maskBytes<>+4(SB)/4, $0x01010100
DATA maskBytes<>+8(SB)/4, $0x01010001
DATA maskBytes<>+12(SB)/4, $0x01010000
DATA maskBytes<>+16(SB)/4, $0x01000101
DATA maskBytes<>+20(SB)/4, $0x01000100
DATA maskBytes<>+24(SB)/4, $0x01000001
DATA maskBytes<>+28(SB)/4, $0x01000000
DATA maskBytes<>+32(SB)/4, $0x00010101
DATA maskBytes<>+36(SB)/4, $0x00010100
DATA maskBytes<>+40(SB)/4, $0x00010001
DATA maskBytes<>+44(SB)/4, $0x00010000
DATA maskBytes<>+48(SB)/4, $0x00000101
DATA maskBytes<>+52(SB)/4, $0x00000100
DATA maskBytes<>+56(SB)/4, $0x00000001
DATA maskBytes<>+60(SB)/4, $0x00000000
GLOBL maskBytes<>(SB), RODATA|NOPTR, $64

// func nanMaskAVX2(mask []bool, x []float64) int
//
// Four bins per step: VCMPPD's unordered test sets a lane to all ones at a
// NaN, which VPSUBQ counts in Y1's lanes, and the four NaN bits from
// VMOVMSKPD index maskBytes (R9), whose entry m holds byte i = 1 where bit i
// of m is clear.
TEXT ·nanMaskAVX2(SB), NOSPLIT, $0-56
	MOVQ	mask_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	x_len+32(FP), CX
	VPXOR	Y1, Y1, Y1
	XORQ	DX, DX
	LEAQ	maskBytes<>(SB), R9
	QUADS(tail)

loop:
	VMOVUPD	(SI)(AX*8), Y0
	VCMPPD	$3, Y0, Y0, Y0
	VPSUBQ	Y0, Y1, Y1
	VMOVMSKPD	Y0, R8
	MOVL	(R9)(R8*4), R8
	MOVL	R8, (DI)(AX*1)
	NEXT4(loop)

tail:
	TAILCHECK(done)
	VMOVSD	(SI)(AX*8), X0
	VUCOMISD	X0, X0
	SETPC	(DI)(AX*1)
	INCQ	DX
	MOVBQZX	(DI)(AX*1), R8
	SUBQ	R8, DX
	NEXT1(tail)

done:
	VEXTRACTI128	$1, Y1, X2
	VPADDQ	X2, X1, X1
	VPSHUFD	$0x4e, X1, X2
	VPADDQ	X2, X1, X1
	VMOVQ	X1, AX
	ADDQ	DX, AX
	MOVQ	AX, ret+48(FP)
	VZEROUPPER
	RET

// DOTSTEP adds one element step of XP·YP (loaded through T) into ACC,
// packed or scalar as MOV, MUL and ADD are. DOTCLOSE closes an output's
// lanes [s0, s1] in S01 and [s2, s3] in S23 into S01's (s0+s1) + (s2+s3).
#define DOTSTEP(MOV, MUL, ADD, XP, YP, ACC, T) MOV (XP)(AX*8), T; MUL (YP)(AX*8), T, T; ADD T, ACC, ACC
#define DOTCLOSE(S01, S23) HSUM(S01, X12); HSUM(S23, X12); VADDSD S23, S01, S01

// func dot4AVX2(out *[4]float64, x0, y0, x1, y1, x2, y2, x3, y3 *float64, n int)
//
// Four dotGo outputs xᵢ·yᵢ over n elements in one pass: output i's lanes in
// Yi, then [s0, s1] in Xi and [s2, s3] in X(8+i), the tail added to s0.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-80
	MOVQ	x0+8(FP), R8
	MOVQ	y0+16(FP), R9
	MOVQ	x1+24(FP), R10
	MOVQ	y1+32(FP), R11
	MOVQ	x2+40(FP), R12
	MOVQ	y2+48(FP), R13
	MOVQ	x3+56(FP), R14
	MOVQ	y3+64(FP), R15
	MOVQ	n+72(FP), CX
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	QUADS(split)

loop:
	DOTSTEP(VMOVUPD, VMULPD, VADDPD, R8, R9, Y0, Y4)
	DOTSTEP(VMOVUPD, VMULPD, VADDPD, R10, R11, Y1, Y5)
	DOTSTEP(VMOVUPD, VMULPD, VADDPD, R12, R13, Y2, Y6)
	DOTSTEP(VMOVUPD, VMULPD, VADDPD, R14, R15, Y3, Y7)
	NEXT4(loop)

split:
	VEXTRACTF128	$1, Y0, X8
	VEXTRACTF128	$1, Y1, X9
	VEXTRACTF128	$1, Y2, X10
	VEXTRACTF128	$1, Y3, X11

tail:
	TAILCHECK(close)
	DOTSTEP(VMOVSD, VMULSD, VADDSD, R8, R9, X0, X4)
	DOTSTEP(VMOVSD, VMULSD, VADDSD, R10, R11, X1, X5)
	DOTSTEP(VMOVSD, VMULSD, VADDSD, R12, R13, X2, X6)
	DOTSTEP(VMOVSD, VMULSD, VADDSD, R14, R15, X3, X7)
	NEXT1(tail)

close:
	MOVQ	out+0(FP), DI
	DOTCLOSE(X0, X8)
	DOTCLOSE(X1, X9)
	DOTCLOSE(X2, X10)
	DOTCLOSE(X3, X11)
	VMOVSD	X0, (DI)
	VMOVSD	X1, 8(DI)
	VMOVSD	X2, 16(DI)
	VMOVSD	X3, 24(DI)
	VZEROUPPER
	RET

#define FOURTERMS(MUL, ADD, ACC, T, C0, C1, C2, C3) \
	ADDPROD(MUL, ADD, C0, (R12)(AX*8), ACC, T); \
	ADDPROD(MUL, ADD, C1, (R13)(AX*8), ACC, T); \
	ADDPROD(MUL, ADD, C2, (R14)(AX*8), ACC, T); \
	ADDPROD(MUL, ADD, C3, (R15)(AX*8), ACC, T)

// func addRows4AVX2(dst, coef, bd []float64, stride int)
//
// dst += c0·row0 + c1·row1 + c2·row2 + c3·row3 in one pass, each element
// taking the four terms in turn: the coefficients broadcast in Y5-Y8, row j
// at R12-R15, stride elements apart.
TEXT ·addRows4AVX2(SB), NOSPLIT, $0-80
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	MOVQ	coef_base+24(FP), SI
	MOVQ	bd_base+48(FP), R12
	MOVQ	stride+72(FP), R11
	SHLQ	$3, R11
	VBROADCASTSD	(SI), Y5
	VBROADCASTSD	8(SI), Y6
	VBROADCASTSD	16(SI), Y7
	VBROADCASTSD	24(SI), Y8
	LEAQ	(R12)(R11*1), R13
	LEAQ	(R12)(R11*2), R14
	LEAQ	(R13)(R11*2), R15
	QUADS(tail)

loop:
	VMOVUPD	(DI)(AX*8), Y0
	FOURTERMS(VMULPD, VADDPD, Y0, Y1, Y5, Y6, Y7, Y8)
	VMOVUPD	Y0, (DI)(AX*8)
	NEXT4(loop)

tail:
	TAILCHECK(done)
	VMOVSD	(DI)(AX*8), X0
	FOURTERMS(VMULSD, VADDSD, X0, X1, X5, X6, X7, X8)
	VMOVSD	X0, (DI)(AX*8)
	NEXT1(tail)

done:
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
