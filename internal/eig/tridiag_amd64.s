#include "go_asm.h"
#include "textflag.h"

// The AVX2 kernels of tridiagLanes (tridiag.go), in 256-bit VEX arithmetic
// with no FMA. Each lane is one output column j (or one element), and each
// performs the Go reference's IEEE-754 operations in its order: a product,
// then a sum or difference, each rounded once; products and sums commute
// exactly, so only the order of a sequential sum matters, and every lane
// keeps its own. Rows are stride float64s apart, stride a multiple of 4, and
// the lanes run to n rounded up to 4: the extra lanes of a row compute and
// store values no caller reads.

// ROTATE rotates the four columns at OFF of the rows at AX (x) and BX (y)
// by c in Y0 and s in Y1, with y in Y: y ← s·x + c·y is stored, and
// x ← c·x − s·y is left in Y.
#define ROTATE(OFF, Y) \
	VMOVUPD	OFF(AX), Y2; \
	VMULPD	Y2, Y1, Y4; \
	VMULPD	Y, Y0, Y5; \
	VADDPD	Y5, Y4, Y4; \
	VMOVUPD	Y4, OFF(BX); \
	VMULPD	Y2, Y0, Y2; \
	VMULPD	Y, Y1, Y3; \
	VSUBPD	Y3, Y2, Y

// HELDLOADn and HELDSTOREn move n blocks of four columns of the held row
// between Y6–Y9 and the row at R11; ROTATEn rotates them.
#define HELDLOAD1 VMOVUPD (R11), Y6
#define HELDLOAD2 HELDLOAD1; VMOVUPD 32(R11), Y7
#define HELDLOAD3 HELDLOAD2; VMOVUPD 64(R11), Y8
#define HELDLOAD4 HELDLOAD3; VMOVUPD 96(R11), Y9
#define HELDSTORE1 VMOVUPD Y6, (R11)
#define HELDSTORE2 HELDSTORE1; VMOVUPD Y7, 32(R11)
#define HELDSTORE3 HELDSTORE2; VMOVUPD Y8, 64(R11)
#define HELDSTORE4 HELDSTORE3; VMOVUPD Y9, 96(R11)
#define ROTATE1 ROTATE(0, Y6)
#define ROTATE2 ROTATE1; ROTATE(32, Y7)
#define ROTATE3 ROTATE2; ROTATE(64, Y8)
#define ROTATE4 ROTATE3; ROTATE(96, Y9)

// PASS applies all of rots to the blocks of four columns at DI that LOAD,
// STORE and ROT name: rows p and q at AX and BX, c and s broadcast in Y0
// and Y1, and y taken from the held row when q is it (R12), from memory
// otherwise, after the held row is stored.
#define PASS(LOAD, STORE, ROT, next, held) \
	MOVQ	rots_base+32(FP), SI; \
	MOVQ	rots_len+40(FP), CX; \
	XORQ	R12, R12; \
	MOVQ	DI, R11; \
	LOAD; \
next: \
	MOVQ	givens_p(SI), R13; \
	MOVQ	givens_q(SI), R9; \
	MOVQ	R13, AX; \
	IMULQ	R8, AX; \
	ADDQ	DI, AX; \
	MOVQ	R9, BX; \
	IMULQ	R8, BX; \
	ADDQ	DI, BX; \
	VBROADCASTSD	givens_c(SI), Y0; \
	VBROADCASTSD	givens_s(SI), Y1; \
	CMPQ	R9, R12; \
	JEQ	held; \
	STORE; \
	MOVQ	BX, R11; \
	LOAD; \
held: \
	ROT; \
	MOVQ	R13, R12; \
	MOVQ	AX, R11; \
	ADDQ	$givens__size, SI; \
	DECQ	CX; \
	JNZ	next; \
	STORE

// VMSTEP adds x[k]·m[k][j..j+3] into ACC, with x[k] broadcast in Y15 and
// the four columns at OFF(R11); T is scratch.
#define VMSTEP(OFF, ACC, T) \
	VMULPD	OFF(R11), Y15, T; \
	VADDPD	T, ACC, ACC

// func vecMatLanes(dst, x, m []float64, n, stride int)
//
// Twelve columns at a time while they last, then eight or four: each block
// of four keeps its sums in one register, so up to three of the latency-bound
// k chains run side by side.
TEXT ·vecMatLanes(SB), NOSPLIT, $0-88
	MOVQ	dst_base+0(FP), DI
	MOVQ	x_base+24(FP), SI
	MOVQ	m_base+48(FP), DX
	MOVQ	n+72(FP), CX
	MOVQ	stride+80(FP), R8
	SHLQ	$3, R8
	LEAQ	3(CX), R10
	ANDQ	$-4, R10
	SHLQ	$3, R10 // the lane columns' end, in bytes
	XORQ	R9, R9  // the first column of the block, in bytes

vm12:
	LEAQ	96(R9), AX
	CMPQ	AX, R10
	JGT	vm8
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	LEAQ	(DX)(R9*1), R11
	XORQ	BX, BX

vm12k:
	VBROADCASTSD	(SI)(BX*8), Y15
	VMSTEP(0, Y0, Y4)
	VMSTEP(32, Y1, Y5)
	VMSTEP(64, Y2, Y6)
	ADDQ	R8, R11
	INCQ	BX
	CMPQ	BX, CX
	JLT	vm12k
	VMOVUPD	Y0, (DI)(R9*1)
	VMOVUPD	Y1, 32(DI)(R9*1)
	VMOVUPD	Y2, 64(DI)(R9*1)
	MOVQ	AX, R9
	JMP	vm12

vm8:
	LEAQ	64(R9), AX
	CMPQ	AX, R10
	JGT	vm4
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	LEAQ	(DX)(R9*1), R11
	XORQ	BX, BX

vm8k:
	VBROADCASTSD	(SI)(BX*8), Y15
	VMSTEP(0, Y0, Y4)
	VMSTEP(32, Y1, Y5)
	ADDQ	R8, R11
	INCQ	BX
	CMPQ	BX, CX
	JLT	vm8k
	VMOVUPD	Y0, (DI)(R9*1)
	VMOVUPD	Y1, 32(DI)(R9*1)
	MOVQ	AX, R9

vm4:
	CMPQ	R9, R10
	JGE	vmdone
	VXORPD	Y0, Y0, Y0
	LEAQ	(DX)(R9*1), R11
	XORQ	BX, BX

vm4k:
	VBROADCASTSD	(SI)(BX*8), Y15
	VMSTEP(0, Y0, Y4)
	ADDQ	R8, R11
	INCQ	BX
	CMPQ	BX, CX
	JLT	vm4k
	VMOVUPD	Y0, (DI)(R9*1)

vmdone:
	VZEROUPPER
	RET

// func rank2Lanes(m, u, t []float64, n, stride int)
TEXT ·rank2Lanes(SB), NOSPLIT, $0-88
	MOVQ	m_base+0(FP), DI
	MOVQ	u_base+24(FP), SI
	MOVQ	t_base+48(FP), DX
	MOVQ	n+72(FP), CX
	MOVQ	stride+80(FP), R8
	SHLQ	$3, R8
	LEAQ	3(CX), R10
	SHRQ	$2, R10 // blocks of four per row
	XORQ	BX, BX  // the row j

r2row:
	VBROADCASTSD	(SI)(BX*8), Y0 // u[j]
	VBROADCASTSD	(DX)(BX*8), Y1 // t[j]
	XORQ	AX, AX
	MOVQ	R10, R9

r2col:
	VMULPD	(DX)(AX*1), Y0, Y2 // u[j]·t[k]
	VMULPD	(SI)(AX*1), Y1, Y3 // t[j]·u[k]
	VADDPD	Y3, Y2, Y2
	VMOVUPD	(DI)(AX*1), Y4
	VSUBPD	Y2, Y4, Y4
	VMOVUPD	Y4, (DI)(AX*1)
	ADDQ	$32, AX
	DECQ	R9
	JNZ	r2col
	ADDQ	R8, DI
	INCQ	BX
	CMPQ	BX, CX
	JLT	r2row
	VZEROUPPER
	RET

// func rank1Lanes(m, w, t []float64, n, stride int)
TEXT ·rank1Lanes(SB), NOSPLIT, $0-88
	MOVQ	m_base+0(FP), DI
	MOVQ	w_base+24(FP), SI
	MOVQ	t_base+48(FP), DX
	MOVQ	n+72(FP), CX
	MOVQ	stride+80(FP), R8
	SHLQ	$3, R8
	LEAQ	3(CX), R10
	SHRQ	$2, R10
	XORQ	BX, BX // the row k

r1row:
	VBROADCASTSD	(SI)(BX*8), Y0 // w[k]
	XORQ	AX, AX
	MOVQ	R10, R9

r1col:
	VMULPD	(DX)(AX*1), Y0, Y2 // t[j]·w[k]
	VMOVUPD	(DI)(AX*1), Y4
	VSUBPD	Y2, Y4, Y4
	VMOVUPD	Y4, (DI)(AX*1)
	ADDQ	$32, AX
	DECQ	R9
	JNZ	r1col
	ADDQ	R8, DI
	INCQ	BX
	CMPQ	BX, CX
	JLT	r1row
	VZEROUPPER
	RET

// func rotateLanes(z []float64, stride int, rots []givens)
//
// A PASS over all of rots for each sixteen columns, the last pass over one
// to four blocks of four. QL's rotations come in chains (i, i+1), (i−1, i),
// …, so the x row a rotation leaves is most often the next one's y: it
// stays in Y6–Y9 (R12 names it, R11 points at it) and goes to memory only
// when a rotation's y is another row, and at the end of the pass. A
// rotation's p and q differ.
TEXT ·rotateLanes(SB), NOSPLIT, $0-56
	MOVQ	z_base+0(FP), DI
	MOVQ	stride+24(FP), R8
	MOVQ	rots_len+40(FP), CX
	TESTQ	CX, CX
	JZ	rotdone
	MOVQ	R8, R10
	SHRQ	$2, R10 // blocks of four columns left
	SHLQ	$3, R8

rotblock:
	CMPQ	R10, $3
	JGT	rot4
	JEQ	rot3
	CMPQ	R10, $2
	JEQ	rot2
	PASS(HELDLOAD1, HELDSTORE1, ROTATE1, rot1next, rot1held)
	JMP	rotdone

rot2:
	PASS(HELDLOAD2, HELDSTORE2, ROTATE2, rot2next, rot2held)
	JMP	rotdone

rot3:
	PASS(HELDLOAD3, HELDSTORE3, ROTATE3, rot3next, rot3held)
	JMP	rotdone

rot4:
	PASS(HELDLOAD4, HELDSTORE4, ROTATE4, rot4next, rot4held)
	ADDQ	$128, DI
	SUBQ	$4, R10
	JNZ	rotblock

rotdone:
	VZEROUPPER
	RET

// func transposeLanes(dst, src []float64, n, stride int)
//
// dst[j][k] = src[k][j] for j, k < n rounded up to 4, in 4×4 blocks.
TEXT ·transposeLanes(SB), NOSPLIT, $0-64
	MOVQ	dst_base+0(FP), DI
	MOVQ	src_base+24(FP), SI
	MOVQ	n+48(FP), CX
	MOVQ	stride+56(FP), R8
	SHLQ	$3, R8
	ADDQ	$3, CX
	SHRQ	$2, CX // blocks of four
	LEAQ	(R8)(R8*2), R9 // three rows
	XORQ	R10, R10 // the source block row

trrow:
	MOVQ	R10, R11
	SHLQ	$2, R11
	IMULQ	R8, R11
	LEAQ	(SI)(R11*1), AX // src row 4·R10
	MOVQ	R10, BX
	SHLQ	$5, BX
	ADDQ	DI, BX // dst column 4·R10 of row 0
	MOVQ	CX, DX

trblock:
	VMOVUPD	(AX), Y0
	VMOVUPD	(AX)(R8*1), Y1
	VMOVUPD	(AX)(R8*2), Y2
	VMOVUPD	(AX)(R9*1), Y3
	VUNPCKLPD	Y1, Y0, Y4
	VUNPCKHPD	Y1, Y0, Y5
	VUNPCKLPD	Y3, Y2, Y6
	VUNPCKHPD	Y3, Y2, Y7
	VPERM2F128	$0x20, Y6, Y4, Y0
	VPERM2F128	$0x20, Y7, Y5, Y1
	VPERM2F128	$0x31, Y6, Y4, Y2
	VPERM2F128	$0x31, Y7, Y5, Y3
	VMOVUPD	Y0, (BX)
	VMOVUPD	Y1, (BX)(R8*1)
	VMOVUPD	Y2, (BX)(R8*2)
	VMOVUPD	Y3, (BX)(R9*1)
	ADDQ	$32, AX
	LEAQ	(BX)(R8*4), BX
	DECQ	DX
	JNZ	trblock
	INCQ	R10
	CMPQ	R10, CX
	JLT	trrow
	VZEROUPPER
	RET
