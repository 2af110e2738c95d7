#include "textflag.h"

// SSE2 kernels; see kernels_amd64.go. Each split accumulator of a Go loop is
// one lane of an XMM register: the [even, odd] pairs of centerProjectGo and
// syrkRowsGo are one register per output, dotGo's s0..s3 are two registers.
// Odd tails go to the lane Go adds them to and there is no FMA, so every
// result is bit-identical to the Go loop. (When both operands of a multiply
// or add are NaN, x86 returns the first one's payload, and Go's register
// allocator picks that order per instruction; a NaN result matches as a NaN.)
// MOVUPD does every 16-byte load and store and packed arithmetic takes
// register operands only, since no slice is assumed 16-byte aligned.

// HSUM sets the low lane of X to its low lane plus its high lane, the
// a0+a1 that closes a pair of split accumulators. T is scratch.
#define HSUM(X, T) \
	MOVAPD	X, T; \
	UNPCKHPD	T, T; \
	ADDSD	T, X

// DOTCORE is dotGo over CX elements of x at SI and y at DI: X0 low lane gets
// (s0+s1) + (s2+s3). Clobbers AX, BX, X0-X3. Used once per TEXT block, since
// labels are local to a function.
#define DOTCORE \
	XORPD	X0, X0; \
	XORPD	X1, X1; \
	XORQ	AX, AX; \
	MOVQ	CX, BX; \
	ANDQ	$~3, BX; \
	JZ	dottail; \
dotloop: \
	MOVUPD	(SI)(AX*8), X2; \
	MOVUPD	(DI)(AX*8), X3; \
	MULPD	X3, X2; \
	ADDPD	X2, X0; \
	MOVUPD	16(SI)(AX*8), X2; \
	MOVUPD	16(DI)(AX*8), X3; \
	MULPD	X3, X2; \
	ADDPD	X2, X1; \
	ADDQ	$4, AX; \
	CMPQ	AX, BX; \
	JLT	dotloop; \
dottail: \
	CMPQ	AX, CX; \
	JGE	dotdone; \
	MOVSD	(SI)(AX*8), X2; \
	MULSD	(DI)(AX*8), X2; \
	ADDSD	X2, X0; \
	INCQ	AX; \
	JMP	dottail; \
dotdone: \
	HSUM(X0, X2); \
	HSUM(X1, X3); \
	ADDSD	X1, X0

// PAIRDOT adds y·b over one lane pair into ACC: Y holds y[i:i+2], B is a
// memory operand, T is scratch.
#define PAIRDOT(Y, B, ACC, T) \
	MOVUPD	B, T; \
	MULPD	Y, T; \
	ADDPD	T, ACC

// LANEDOT is PAIRDOT for a lone odd-tail element into the low lane.
#define LANEDOT(Y, B, ACC, T) \
	MOVSD	B, T; \
	MULSD	Y, T; \
	ADDSD	T, ACC

// func dot(x, y []float64) float64
TEXT ·dot(SB), NOSPLIT, $0-56
	MOVQ	x_base+0(FP), SI
	MOVQ	x_len+8(FP), CX
	MOVQ	y_base+24(FP), DI
	DOTCORE
	MOVSD	X0, ret+48(FP)
	RET

// func lerp(dst []float64, a float64, x []float64, b float64, y []float64)
TEXT ·lerp(SB), NOSPLIT, $0-88
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), CX
	MOVSD	a+24(FP), X0
	MOVQ	x_base+32(FP), SI
	MOVSD	b+56(FP), X1
	MOVQ	y_base+64(FP), DX
	UNPCKLPD	X0, X0
	UNPCKLPD	X1, X1
	XORQ	AX, AX
	MOVQ	CX, BX
	ANDQ	$~1, BX
	JZ	tail

loop:
	MOVUPD	(SI)(AX*8), X2
	MOVUPD	(DX)(AX*8), X3
	MOVAPD	X0, X4
	MULPD	X2, X4
	MOVAPD	X1, X5
	MULPD	X3, X5
	ADDPD	X5, X4
	MOVUPD	X4, (DI)(AX*8)
	ADDQ	$2, AX
	CMPQ	AX, BX
	JLT	loop

tail:
	CMPQ	AX, CX
	JGE	done
	MOVSD	(SI)(AX*8), X2
	MOVSD	(DX)(AX*8), X3
	MOVAPD	X0, X4
	MULSD	X2, X4
	MOVAPD	X1, X5
	MULSD	X3, X5
	ADDSD	X5, X4
	MOVSD	X4, (DI)(AX*8)

done:
	RET

// QUADCOEF closes four [even, odd] accumulators X0-X3 and stores them to
// coef[j..j+3] (coef at R8, j in R10). Clobbers X5-X8.
#define QUADCOEF \
	HSUM(X0, X5); \
	HSUM(X1, X6); \
	HSUM(X2, X7); \
	HSUM(X3, X8); \
	MOVSD	X0, (R8)(R10*8); \
	MOVSD	X1, 8(R8)(R10*8); \
	MOVSD	X2, 16(R8)(R10*8); \
	MOVSD	X3, 24(R8)(R10*8)

// func centerProject(y, coef, x, mean, bd []float64) float64
//
// coef[j] = y·bd[j,:] takes four rows per sweep over y while four remain,
// then two, then dotGo for an odd last row; with four rows or more, the
// first sweep also forms y = x − mean and ‖y‖² (lanes [s0, s1] in X9).
// Every output keeps its own accumulators, so the grouping does not change
// its operations. R12 walks the rows of bd; R13-R15 are the next three.
TEXT ·centerProject(SB), NOSPLIT, $0-128
	MOVQ	y_base+0(FP), DI
	MOVQ	coef_base+24(FP), R8
	MOVQ	coef_len+32(FP), R9
	MOVQ	x_base+48(FP), SI
	MOVQ	x_len+56(FP), CX
	MOVQ	mean_base+72(FP), DX
	MOVQ	bd_base+96(FP), R12
	MOVQ	CX, R11
	SHLQ	$3, R11
	MOVQ	CX, BX
	ANDQ	$~1, BX
	XORQ	R10, R10
	XORPD	X9, X9
	CMPQ	R9, $4
	JLT	center

	LEAQ	(R12)(R11*1), R13
	LEAQ	(R13)(R11*1), R14
	LEAQ	(R14)(R11*1), R15
	XORPD	X0, X0
	XORPD	X1, X1
	XORPD	X2, X2
	XORPD	X3, X3
	XORQ	AX, AX
	TESTQ	BX, BX
	JZ	fusedtail

fusedloop:
	MOVUPD	(SI)(AX*8), X4
	MOVUPD	(DX)(AX*8), X5
	SUBPD	X5, X4
	MOVUPD	X4, (DI)(AX*8)
	MOVAPD	X4, X5
	MULPD	X5, X5
	ADDPD	X5, X9
	PAIRDOT(X4, (R12)(AX*8), X0, X5)
	PAIRDOT(X4, (R13)(AX*8), X1, X6)
	PAIRDOT(X4, (R14)(AX*8), X2, X7)
	PAIRDOT(X4, (R15)(AX*8), X3, X8)
	ADDQ	$2, AX
	CMPQ	AX, BX
	JLT	fusedloop

fusedtail:
	CMPQ	AX, CX
	JGE	fuseddone
	MOVSD	(SI)(AX*8), X4
	SUBSD	(DX)(AX*8), X4
	MOVSD	X4, (DI)(AX*8)
	MOVAPD	X4, X5
	MULSD	X5, X5
	ADDSD	X5, X9
	LANEDOT(X4, (R12)(AX*8), X0, X5)
	LANEDOT(X4, (R13)(AX*8), X1, X6)
	LANEDOT(X4, (R14)(AX*8), X2, X7)
	LANEDOT(X4, (R15)(AX*8), X3, X8)

fuseddone:
	QUADCOEF
	LEAQ	(R15)(R11*1), R12
	MOVQ	$4, R10
	JMP	normdone

center:
	XORQ	AX, AX
	TESTQ	BX, BX
	JZ	centertail

centerloop:
	MOVUPD	(SI)(AX*8), X1
	MOVUPD	(DX)(AX*8), X2
	SUBPD	X2, X1
	MOVUPD	X1, (DI)(AX*8)
	MULPD	X1, X1
	ADDPD	X1, X9
	ADDQ	$2, AX
	CMPQ	AX, BX
	JLT	centerloop

centertail:
	CMPQ	AX, CX
	JGE	normdone
	MOVSD	(SI)(AX*8), X1
	SUBSD	(DX)(AX*8), X1
	MOVSD	X1, (DI)(AX*8)
	MULSD	X1, X1
	ADDSD	X1, X9

normdone:
	HSUM(X9, X1)
	MOVSD	X9, ret+120(FP)

quadcheck:
	LEAQ	3(R10), AX
	CMPQ	AX, R9
	JGE	paircheck
	LEAQ	(R12)(R11*1), R13
	LEAQ	(R13)(R11*1), R14
	LEAQ	(R14)(R11*1), R15
	XORPD	X0, X0
	XORPD	X1, X1
	XORPD	X2, X2
	XORPD	X3, X3
	XORQ	AX, AX
	TESTQ	BX, BX
	JZ	quadtail

quadloop:
	MOVUPD	(DI)(AX*8), X4
	PAIRDOT(X4, (R12)(AX*8), X0, X5)
	PAIRDOT(X4, (R13)(AX*8), X1, X6)
	PAIRDOT(X4, (R14)(AX*8), X2, X7)
	PAIRDOT(X4, (R15)(AX*8), X3, X8)
	ADDQ	$2, AX
	CMPQ	AX, BX
	JLT	quadloop

quadtail:
	CMPQ	AX, CX
	JGE	quaddone
	MOVSD	(DI)(AX*8), X4
	LANEDOT(X4, (R12)(AX*8), X0, X5)
	LANEDOT(X4, (R13)(AX*8), X1, X6)
	LANEDOT(X4, (R14)(AX*8), X2, X7)
	LANEDOT(X4, (R15)(AX*8), X3, X8)

quaddone:
	QUADCOEF
	LEAQ	(R15)(R11*1), R12
	ADDQ	$4, R10
	JMP	quadcheck

paircheck:
	LEAQ	1(R10), AX
	CMPQ	AX, R9
	JGE	lonecheck
	LEAQ	(R12)(R11*1), R13
	XORPD	X0, X0
	XORPD	X1, X1
	XORQ	AX, AX
	TESTQ	BX, BX
	JZ	pairtail

pairloop:
	MOVUPD	(DI)(AX*8), X4
	PAIRDOT(X4, (R12)(AX*8), X0, X5)
	PAIRDOT(X4, (R13)(AX*8), X1, X6)
	ADDQ	$2, AX
	CMPQ	AX, BX
	JLT	pairloop

pairtail:
	CMPQ	AX, CX
	JGE	pairdone
	MOVSD	(DI)(AX*8), X4
	LANEDOT(X4, (R12)(AX*8), X0, X5)
	LANEDOT(X4, (R13)(AX*8), X1, X6)

pairdone:
	HSUM(X0, X5)
	HSUM(X1, X6)
	MOVSD	X0, (R8)(R10*8)
	MOVSD	X1, 8(R8)(R10*8)
	LEAQ	(R13)(R11*1), R12
	ADDQ	$2, R10

lonecheck:
	CMPQ	R10, R9
	JGE	projectdone
	MOVQ	DI, SI
	MOVQ	R12, DI
	DOTCORE
	MOVSD	X0, (R8)(R10*8)

projectdone:
	RET

// func syrkRows(dd, ad []float64, n, kk, r int)
TEXT ·syrkRows(SB), NOSPLIT, $0-72
	MOVQ	dd_base+0(FP), R8
	MOVQ	ad_base+24(FP), SI
	MOVQ	n+48(FP), R10
	SHLQ	$3, R10
	MOVQ	kk+56(FP), R11
	SHLQ	$3, R11
	MOVQ	r+64(FP), R12
	MOVQ	kk+56(FP), BX
	ANDQ	$~1, BX
	MOVQ	R8, R9
	XORQ	R13, R13

	// Row i: a row at SI, dd row at R9. Four dots per sweep over it while
	// four columns j remain (R15 walks the a rows j), then two, then dotGo.
rowcheck:
	CMPQ	R13, R12
	JGE	syrkdone
	MOVQ	R13, DX
	MOVQ	SI, R15

quadcheck:
	LEAQ	3(DX), AX
	CMPQ	AX, R12
	JGE	paircheck
	LEAQ	(R15)(R11*1), R14
	LEAQ	(R14)(R11*1), DI
	LEAQ	(DI)(R11*1), CX
	XORPD	X0, X0
	XORPD	X1, X1
	XORPD	X2, X2
	XORPD	X3, X3
	XORQ	AX, AX
	TESTQ	BX, BX
	JZ	quadtail

quadloop:
	MOVUPD	(SI)(AX*8), X4
	PAIRDOT(X4, (R15)(AX*8), X0, X5)
	PAIRDOT(X4, (R14)(AX*8), X1, X6)
	PAIRDOT(X4, (DI)(AX*8), X2, X7)
	PAIRDOT(X4, (CX)(AX*8), X3, X8)
	ADDQ	$2, AX
	CMPQ	AX, BX
	JLT	quadloop

quadtail:
	CMPQ	AX, kk+56(FP)
	JGE	quaddone
	MOVSD	(SI)(AX*8), X4
	LANEDOT(X4, (R15)(AX*8), X0, X5)
	LANEDOT(X4, (R14)(AX*8), X1, X6)
	LANEDOT(X4, (DI)(AX*8), X2, X7)
	LANEDOT(X4, (CX)(AX*8), X3, X8)

quaddone:
	HSUM(X0, X5)
	HSUM(X1, X6)
	HSUM(X2, X7)
	HSUM(X3, X8)
	LEAQ	(CX)(R11*1), R15
	// dd[i*n+j+t] and its mirror dd[(j+t)*n+i].
	MOVSD	X0, (R9)(DX*8)
	MOVSD	X1, 8(R9)(DX*8)
	MOVSD	X2, 16(R9)(DX*8)
	MOVSD	X3, 24(R9)(DX*8)
	MOVQ	DX, AX
	IMULQ	R10, AX
	ADDQ	R8, AX
	MOVSD	X0, (AX)(R13*8)
	ADDQ	R10, AX
	MOVSD	X1, (AX)(R13*8)
	ADDQ	R10, AX
	MOVSD	X2, (AX)(R13*8)
	ADDQ	R10, AX
	MOVSD	X3, (AX)(R13*8)
	ADDQ	$4, DX
	JMP	quadcheck

paircheck:
	LEAQ	1(DX), AX
	CMPQ	AX, R12
	JGE	lonecheck
	LEAQ	(R15)(R11*1), R14
	XORPD	X0, X0
	XORPD	X1, X1
	XORQ	AX, AX
	TESTQ	BX, BX
	JZ	pairtail

pairloop:
	MOVUPD	(SI)(AX*8), X4
	PAIRDOT(X4, (R15)(AX*8), X0, X5)
	PAIRDOT(X4, (R14)(AX*8), X1, X6)
	ADDQ	$2, AX
	CMPQ	AX, BX
	JLT	pairloop

pairtail:
	CMPQ	AX, kk+56(FP)
	JGE	pairdone
	MOVSD	(SI)(AX*8), X4
	LANEDOT(X4, (R15)(AX*8), X0, X5)
	LANEDOT(X4, (R14)(AX*8), X1, X6)

pairdone:
	HSUM(X0, X5)
	HSUM(X1, X6)
	LEAQ	(R14)(R11*1), R15
	MOVSD	X0, (R9)(DX*8)
	MOVSD	X1, 8(R9)(DX*8)
	MOVQ	DX, AX
	IMULQ	R10, AX
	ADDQ	R8, AX
	MOVSD	X0, (AX)(R13*8)
	ADDQ	R10, AX
	MOVSD	X1, (AX)(R13*8)
	ADDQ	$2, DX

lonecheck:
	CMPQ	DX, R12
	JGE	nextrow
	MOVQ	R15, DI
	MOVQ	kk+56(FP), CX
	DOTCORE
	MOVQ	kk+56(FP), BX
	ANDQ	$~1, BX
	MOVSD	X0, (R9)(DX*8)
	MOVQ	DX, AX
	IMULQ	R10, AX
	ADDQ	R8, AX
	MOVSD	X0, (AX)(R13*8)

nextrow:
	ADDQ	R11, SI
	ADDQ	R10, R9
	INCQ	R13
	JMP	rowcheck

syrkdone:
	RET

// PANELSTEP sets T to V0·B0 + V1·B1 + V2·B2 + V3·B3, summed left to right
// as panel2x4Go does; U is scratch. MUL and ADD are
// MULPD/ADDPD for a column pair or MULSD/ADDSD for a lone column.
#define PANELSTEP(MUL, ADD, V0, V1, V2, V3, B0, B1, B2, B3, T, U) \
	MOVAPD	V0, T; \
	MUL	B0, T; \
	MOVAPD	V1, U; \
	MUL	B1, U; \
	ADD	U, T; \
	MOVAPD	V2, U; \
	MUL	B2, U; \
	ADD	U, T; \
	MOVAPD	V3, U; \
	MUL	B3, U; \
	ADD	U, T

// BCAST loads the float64 at M into both lanes of X.
#define BCAST(M, X) \
	MOVSD	M, X; \
	UNPCKLPD	X, X

// func panel2x4(c0, c1, v0, v1, bk0, bk1, bk2, bk3 []float64)
TEXT ·panel2x4(SB), NOSPLIT, $0-192
	MOVQ	c0_base+0(FP), DI
	MOVQ	c1_base+24(FP), R8
	MOVQ	v0_base+48(FP), SI
	MOVQ	v1_base+72(FP), DX
	MOVQ	bk0_base+96(FP), R9
	MOVQ	bk0_len+104(FP), CX
	MOVQ	bk1_base+120(FP), R10
	MOVQ	bk2_base+144(FP), R11
	MOVQ	bk3_base+168(FP), R12
	BCAST((SI), X0)
	BCAST(8(SI), X1)
	BCAST(16(SI), X2)
	BCAST(24(SI), X3)
	BCAST((DX), X4)
	BCAST(8(DX), X5)
	BCAST(16(DX), X6)
	BCAST(24(DX), X7)
	XORQ	AX, AX
	MOVQ	CX, BX
	ANDQ	$~1, BX
	JZ	tail

loop:
	MOVUPD	(R9)(AX*8), X8
	MOVUPD	(R10)(AX*8), X9
	MOVUPD	(R11)(AX*8), X10
	MOVUPD	(R12)(AX*8), X11
	PANELSTEP(MULPD, ADDPD, X0, X1, X2, X3, X8, X9, X10, X11, X12, X13)
	MOVUPD	(DI)(AX*8), X13
	ADDPD	X12, X13
	MOVUPD	X13, (DI)(AX*8)
	PANELSTEP(MULPD, ADDPD, X4, X5, X6, X7, X8, X9, X10, X11, X14, X15)
	MOVUPD	(R8)(AX*8), X15
	ADDPD	X14, X15
	MOVUPD	X15, (R8)(AX*8)
	ADDQ	$2, AX
	CMPQ	AX, BX
	JLT	loop

tail:
	CMPQ	AX, CX
	JGE	done
	MOVSD	(R9)(AX*8), X8
	MOVSD	(R10)(AX*8), X9
	MOVSD	(R11)(AX*8), X10
	MOVSD	(R12)(AX*8), X11
	PANELSTEP(MULSD, ADDSD, X0, X1, X2, X3, X8, X9, X10, X11, X12, X13)
	MOVSD	(DI)(AX*8), X13
	ADDSD	X12, X13
	MOVSD	X13, (DI)(AX*8)
	PANELSTEP(MULSD, ADDSD, X4, X5, X6, X7, X8, X9, X10, X11, X14, X15)
	MOVSD	(R8)(AX*8), X15
	ADDSD	X14, X15
	MOVSD	X15, (R8)(AX*8)

done:
	RET

// func panel2x1(c0, c1 []float64, v0, v1 float64, bk []float64)
TEXT ·panel2x1(SB), NOSPLIT, $0-88
	MOVQ	c0_base+0(FP), DI
	MOVQ	c1_base+24(FP), R8
	BCAST(v0+48(FP), X0)
	BCAST(v1+56(FP), X1)
	MOVQ	bk_base+64(FP), R9
	MOVQ	bk_len+72(FP), CX
	XORQ	AX, AX
	MOVQ	CX, BX
	ANDQ	$~1, BX
	JZ	tail

loop:
	MOVUPD	(R9)(AX*8), X2
	MOVAPD	X0, X3
	MULPD	X2, X3
	MOVUPD	(DI)(AX*8), X4
	ADDPD	X3, X4
	MOVUPD	X4, (DI)(AX*8)
	MULPD	X1, X2
	MOVUPD	(R8)(AX*8), X5
	ADDPD	X2, X5
	MOVUPD	X5, (R8)(AX*8)
	ADDQ	$2, AX
	CMPQ	AX, BX
	JLT	loop

tail:
	CMPQ	AX, CX
	JGE	done
	MOVSD	(R9)(AX*8), X2
	MOVAPD	X0, X3
	MULSD	X2, X3
	MOVSD	(DI)(AX*8), X4
	ADDSD	X3, X4
	MOVSD	X4, (DI)(AX*8)
	MULSD	X1, X2
	MOVSD	(R8)(AX*8), X5
	ADDSD	X2, X5
	MOVSD	X5, (R8)(AX*8)

done:
	RET

// func panel1x4(c0, v, bk0, bk1, bk2, bk3 []float64)
TEXT ·panel1x4(SB), NOSPLIT, $0-144
	MOVQ	c0_base+0(FP), DI
	MOVQ	v_base+24(FP), SI
	MOVQ	bk0_base+48(FP), R9
	MOVQ	bk0_len+56(FP), CX
	MOVQ	bk1_base+72(FP), R10
	MOVQ	bk2_base+96(FP), R11
	MOVQ	bk3_base+120(FP), R12
	BCAST((SI), X0)
	BCAST(8(SI), X1)
	BCAST(16(SI), X2)
	BCAST(24(SI), X3)
	XORQ	AX, AX
	MOVQ	CX, BX
	ANDQ	$~1, BX
	JZ	tail

loop:
	MOVUPD	(R9)(AX*8), X8
	MOVUPD	(R10)(AX*8), X9
	MOVUPD	(R11)(AX*8), X10
	MOVUPD	(R12)(AX*8), X11
	PANELSTEP(MULPD, ADDPD, X0, X1, X2, X3, X8, X9, X10, X11, X12, X13)
	MOVUPD	(DI)(AX*8), X13
	ADDPD	X12, X13
	MOVUPD	X13, (DI)(AX*8)
	ADDQ	$2, AX
	CMPQ	AX, BX
	JLT	loop

tail:
	CMPQ	AX, CX
	JGE	done
	MOVSD	(R9)(AX*8), X8
	MOVSD	(R10)(AX*8), X9
	MOVSD	(R11)(AX*8), X10
	MOVSD	(R12)(AX*8), X11
	PANELSTEP(MULSD, ADDSD, X0, X1, X2, X3, X8, X9, X10, X11, X12, X13)
	MOVSD	(DI)(AX*8), X13
	ADDSD	X12, X13
	MOVSD	X13, (DI)(AX*8)

done:
	RET
