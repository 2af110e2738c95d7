#include "go_asm.h"
#include "textflag.h"

// secularLanes: root (arrow.go) for four roots at once, one per YMM lane, in
// 256-bit VEX arithmetic with no FMA. Each lane performs root's IEEE-754
// operations in root's order: −x/2 is a multiply by −0.5 and x/2 one by 0.5,
// each the same single rounding; Go's max(x, 0) is VMAXPD with x second, so a
// NaN stays NaN, and the sign it may leave on a zero is cleared by Copysign;
// compares are the quiet predicates GT_OQ (0x1e), LT_OQ (0x11) and LE_OQ
// (0x12), false on NaN as Go's are. Blends stand in for root's branches, and
// a lane whose root is found leaves the active mask Y13 with its σ and τ
// frozen. The iteration keeps σ in Y14, τ in Y15, a−σ in Y11, the index i in
// Y12 and the bracket in Y10 (lo) and Y9 (hi).

DATA lanesAbs<>+0(SB)/8, $0x7fffffffffffffff
DATA lanesAbs<>+8(SB)/8, $0x7fffffffffffffff
DATA lanesAbs<>+16(SB)/8, $0x7fffffffffffffff
DATA lanesAbs<>+24(SB)/8, $0x7fffffffffffffff
GLOBL lanesAbs<>(SB), RODATA|NOPTR, $32

DATA lanesSign<>+0(SB)/8, $0x8000000000000000
DATA lanesSign<>+8(SB)/8, $0x8000000000000000
DATA lanesSign<>+16(SB)/8, $0x8000000000000000
DATA lanesSign<>+24(SB)/8, $0x8000000000000000
GLOBL lanesSign<>(SB), RODATA|NOPTR, $32

DATA lanesStep<>+0(SB)/8, $1
DATA lanesStep<>+8(SB)/8, $1
DATA lanesStep<>+16(SB)/8, $1
DATA lanesStep<>+24(SB)/8, $1
GLOBL lanesStep<>(SB), RODATA|NOPTR, $32

// 0, 1, 2, 3: the lane numbers
DATA lanesIota<>+0(SB)/8, $0
DATA lanesIota<>+8(SB)/8, $1
DATA lanesIota<>+16(SB)/8, $2
DATA lanesIota<>+24(SB)/8, $3
GLOBL lanesIota<>(SB), RODATA|NOPTR, $32

// 1.0
DATA lanesOne<>+0(SB)/8, $0x3ff0000000000000
DATA lanesOne<>+8(SB)/8, $0x3ff0000000000000
DATA lanesOne<>+16(SB)/8, $0x3ff0000000000000
DATA lanesOne<>+24(SB)/8, $0x3ff0000000000000
GLOBL lanesOne<>(SB), RODATA|NOPTR, $32

// 0.5
DATA lanesHalf<>+0(SB)/8, $0x3fe0000000000000
DATA lanesHalf<>+8(SB)/8, $0x3fe0000000000000
DATA lanesHalf<>+16(SB)/8, $0x3fe0000000000000
DATA lanesHalf<>+24(SB)/8, $0x3fe0000000000000
GLOBL lanesHalf<>(SB), RODATA|NOPTR, $32

// −0.5
DATA lanesNegHalf<>+0(SB)/8, $0xbfe0000000000000
DATA lanesNegHalf<>+8(SB)/8, $0xbfe0000000000000
DATA lanesNegHalf<>+16(SB)/8, $0xbfe0000000000000
DATA lanesNegHalf<>+24(SB)/8, $0xbfe0000000000000
GLOBL lanesNegHalf<>(SB), RODATA|NOPTR, $32

// 4.0
DATA lanesFour<>+0(SB)/8, $0x4010000000000000
DATA lanesFour<>+8(SB)/8, $0x4010000000000000
DATA lanesFour<>+16(SB)/8, $0x4010000000000000
DATA lanesFour<>+24(SB)/8, $0x4010000000000000
GLOBL lanesFour<>(SB), RODATA|NOPTR, $32

// 4ε = 2⁻⁵⁰
DATA lanesTiny<>+0(SB)/8, $0x3cd0000000000000
DATA lanesTiny<>+8(SB)/8, $0x3cd0000000000000
DATA lanesTiny<>+16(SB)/8, $0x3cd0000000000000
DATA lanesTiny<>+24(SB)/8, $0x3cd0000000000000
GLOBL lanesTiny<>(SB), RODATA|NOPTR, $32

// QUADROOT is quadRoot(QA, QB, QC, LO, HI) per lane: it leaves in QC the mask
// of lanes with a root in (LO, HI) and in QB that root, qc/q where it lies
// there and q/qa otherwise. QA, T0 and T1 are clobbered.
#define QUADROOT(QA, QB, QC, LO, HI, T0, T1) \
	VMULPD	QB, QB, T0; \
	VMULPD	lanesFour<>(SB), QA, T1; \
	VMULPD	QC, T1, T1; \
	VSUBPD	T1, T0, T0; \
	VXORPD	T1, T1, T1; \
	VMAXPD	T0, T1, T0; \
	VSQRTPD	T0, T0; \
	VANDPD	lanesAbs<>(SB), T0, T0; \
	VANDPD	lanesSign<>(SB), QB, T1; \
	VORPD	T1, T0, T0; \
	VADDPD	T0, QB, T0; \
	VMULPD	lanesNegHalf<>(SB), T0, T0; \
	VDIVPD	T0, QC, QC; \
	VDIVPD	QA, T0, QA; \
	VCMPPD	$0x1e, LO, QC, T0; \
	VCMPPD	$0x11, HI, QC, T1; \
	VANDPD	T1, T0, T0; \
	VCMPPD	$0x1e, LO, QA, T1; \
	VCMPPD	$0x11, HI, QA, QB; \
	VANDPD	QB, T1, T1; \
	VBLENDVPD	T0, QC, QA, QB; \
	VORPD	T1, T0, QC

// MIDPOINT sets DST = LO + (HI−LO)/2.
#define MIDPOINT(LO, HI, DST) \
	VSUBPD	LO, HI, DST; \
	VMULPD	lanesHalf<>(SB), DST, DST; \
	VADDPD	DST, LO, DST

// func secularLanes(kd, kz []float64, a, thr float64, ln *lanes) bool
TEXT ·secularLanes(SB), NOSPLIT, $0-73
	MOVQ	kd_base+0(FP), SI
	MOVQ	kd_len+8(FP), CX
	MOVQ	kz_base+24(FP), DI
	MOVQ	ln+64(FP), DX

	// The probe: g = (a−s0) − t0 − Σ term_q, term_q = kz[q]·(kz[q]/δ_q) for an
	// interior root (secular at kd[i] + half) and kz[q]²/δ_q but 0 at the pole
	// for an extreme one, with δ_q = (kd[q]−s0) − t0 (t0 = 0 there, so δ_q is
	// kd[q]−σ exactly). Y13 holds the extreme mask, Y12 the skipped pole, Y4 q.
	VMOVUPD	lanes_s0(DX), Y14
	VMOVUPD	lanes_t0(DX), Y15
	VMOVUPD	lanes_ext(DX), Y13
	VMOVUPD	lanes_skip(DX), Y12
	VBROADCASTSD	a+48(FP), Y0
	VSUBPD	Y14, Y0, Y0
	VSUBPD	Y15, Y0, Y0
	VPXOR	Y4, Y4, Y4
	XORQ	AX, AX

probe:
	VBROADCASTSD	(SI)(AX*8), Y5
	VSUBPD	Y14, Y5, Y5
	VSUBPD	Y15, Y5, Y5
	VBROADCASTSD	(DI)(AX*8), Y6
	VMULPD	Y6, Y6, Y7
	VBLENDVPD	Y13, Y7, Y6, Y7
	VDIVPD	Y5, Y7, Y7
	VMULPD	Y7, Y6, Y6
	VBLENDVPD	Y13, Y7, Y6, Y6
	VPCMPEQQ	Y12, Y4, Y5
	VANDNPD	Y6, Y5, Y6
	VSUBPD	Y6, Y0, Y0
	VPADDQ	lanesStep<>(SB), Y4, Y4
	INCQ	AX
	CMPQ	AX, CX
	JLT	probe

	// Interior start: c = g − wa/half + wb/half in Y1; the sign of g picks
	// σ (Y6) and the bracket; p1 = kd[i]−σ (Y4) and p2 = kd[i−1]−σ (Y5) are
	// kept for the iteration; qb = wa+wb − c·(p1+p2) in Y7 and
	// qc = c·p1·p2 − wa·p2 − wb·p1 in Y8.
	VMOVUPD	lanes_wa(DX), Y1
	VDIVPD	Y15, Y1, Y1
	VSUBPD	Y1, Y0, Y1
	VMOVUPD	lanes_wb(DX), Y2
	VDIVPD	Y15, Y2, Y2
	VADDPD	Y2, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VCMPPD	$0x1e, Y2, Y0, Y3
	VMOVUPD	lanes_kdi(DX), Y4
	VMOVUPD	lanes_kdh(DX), Y5
	VBLENDVPD	Y3, Y5, Y4, Y6
	VXORPD	lanesSign<>(SB), Y15, Y7
	VBLENDVPD	Y3, Y7, Y2, Y10
	VBLENDVPD	Y3, Y2, Y15, Y9
	VSUBPD	Y6, Y4, Y4
	VSUBPD	Y6, Y5, Y5
	VMOVUPD	Y4, lanes_p1(DX)
	VMOVUPD	Y5, lanes_p2(DX)
	VMOVUPD	lanes_wa(DX), Y7
	VADDPD	lanes_wb(DX), Y7, Y7
	VADDPD	Y5, Y4, Y8
	VMULPD	Y8, Y1, Y8
	VSUBPD	Y8, Y7, Y7
	VMULPD	Y4, Y1, Y8
	VMULPD	Y5, Y8, Y8
	VMULPD	lanes_wa(DX), Y5, Y3
	VSUBPD	Y3, Y8, Y8
	VMULPD	lanes_wb(DX), Y4, Y3
	VSUBPD	Y3, Y8, Y8

	// Extreme start: σ = s0, the bracket from ln, and quadRoot(1, −g, qc).
	VBLENDVPD	Y13, Y14, Y6, Y14
	VBLENDVPD	Y13, lanes_lo(DX), Y10, Y10
	VBLENDVPD	Y13, lanes_hi(DX), Y9, Y9
	VBLENDVPD	Y13, lanesOne<>(SB), Y1, Y1
	VXORPD	lanesSign<>(SB), Y0, Y3
	VBLENDVPD	Y13, Y3, Y7, Y7
	VBLENDVPD	Y13, lanes_qc(DX), Y8, Y8
	QUADROOT(Y1, Y7, Y8, Y10, Y9, Y2, Y3)
	MIDPOINT(Y10, Y9, Y2)
	VBLENDVPD	Y8, Y7, Y2, Y15

	VBROADCASTSD	a+48(FP), Y11
	VSUBPD	Y14, Y11, Y11
	VMOVUPD	lanes_split(DX), Y12
	VMOVUPD	lanes_live(DX), Y13
	XORQ	BX, BX

	// One round: secular at σ+τ in every lane, g in Y0, the scale of its
	// rounding error in Y1, and the derivative sums over the poles below
	// (q ≥ i, Y2) and above (q < i, Y3) the root; Y4 is q.
round:
	VSUBPD	Y15, Y11, Y0
	VANDPD	lanesAbs<>(SB), Y11, Y1
	VANDPD	lanesAbs<>(SB), Y15, Y5
	VADDPD	Y5, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VPXOR	Y4, Y4, Y4
	XORQ	AX, AX

secular:
	VBROADCASTSD	(SI)(AX*8), Y5
	VSUBPD	Y14, Y5, Y5
	VSUBPD	Y15, Y5, Y5
	VBROADCASTSD	(DI)(AX*8), Y6
	VDIVPD	Y5, Y6, Y7
	VMULPD	Y7, Y6, Y6
	VSUBPD	Y6, Y0, Y0
	VANDPD	lanesAbs<>(SB), Y6, Y6
	VADDPD	Y6, Y1, Y1
	VMULPD	Y7, Y7, Y7
	VPCMPGTQ	Y4, Y12, Y8
	VANDPD	Y7, Y8, Y6
	VADDPD	Y6, Y3, Y3
	VANDNPD	Y7, Y8, Y7
	VADDPD	Y7, Y2, Y2
	VPADDQ	lanesStep<>(SB), Y4, Y4
	INCQ	AX
	CMPQ	AX, CX
	JLT	secular

	// |g| ≤ (m+2)ε·mag: the root is found.
	VANDPD	lanesAbs<>(SB), Y0, Y5
	VBROADCASTSD	thr+56(FP), Y6
	VMULPD	Y1, Y6, Y6
	VCMPPD	$0x12, Y6, Y5, Y5
	VANDNPD	Y13, Y5, Y13
	VMOVMSKPD	Y13, R8
	TESTQ	R8, R8
	JZ	done
	CMPQ	BX, $const_arrowMaxIter
	JEQ	fail

	// Shrink the bracket to τ on g's side.
	VXORPD	Y5, Y5, Y5
	VCMPPD	$0x1e, Y5, Y0, Y5
	VBLENDVPD	Y5, Y15, Y10, Y10
	VBLENDVPD	Y5, Y9, Y15, Y9

	// Interior model: a1 = p1−τ (Y4), a2 = p2−τ (Y5), wa = a1²·dlo (Y1) and
	// wb = a2²·dup (Y8), f′'s −1 on the farther pole; c (Y6), qb (Y1),
	// qc = a1·a2·g (Y4). Y2 keeps dlo+dup for the extreme model.
	VMOVUPD	lanes_p1(DX), Y4
	VSUBPD	Y15, Y4, Y4
	VMOVUPD	lanes_p2(DX), Y5
	VSUBPD	Y15, Y5, Y5
	VMULPD	Y4, Y4, Y6
	VMULPD	Y2, Y6, Y1
	VMULPD	Y5, Y5, Y7
	VMULPD	Y3, Y7, Y8
	VADDPD	Y3, Y2, Y2
	VXORPD	lanesSign<>(SB), Y4, Y3
	VCMPPD	$0x1e, Y5, Y3, Y3
	VADDPD	Y6, Y1, Y6
	VBLENDVPD	Y3, Y6, Y1, Y1
	VADDPD	Y7, Y8, Y7
	VBLENDVPD	Y3, Y8, Y7, Y8
	VDIVPD	Y4, Y1, Y6
	VADDPD	Y6, Y0, Y6
	VDIVPD	Y5, Y8, Y7
	VADDPD	Y7, Y6, Y6
	VADDPD	Y8, Y1, Y1
	VADDPD	Y5, Y4, Y3
	VMULPD	Y3, Y6, Y3
	VSUBPD	Y3, Y1, Y1
	VMULPD	Y5, Y4, Y4
	VMULPD	Y0, Y4, Y4

	// Extreme model, a1 = −τ (Y3): c = g + a1·(dlo+dup), qa = 1,
	// qb = −(c+a1), qc = g·a1; blended in where ext is set.
	VXORPD	lanesSign<>(SB), Y15, Y3
	VMULPD	Y2, Y3, Y5
	VADDPD	Y5, Y0, Y5
	VADDPD	Y3, Y5, Y5
	VXORPD	lanesSign<>(SB), Y5, Y5
	VMULPD	Y3, Y0, Y3
	VMOVUPD	lanes_ext(DX), Y7
	VBLENDVPD	Y7, lanesOne<>(SB), Y6, Y6
	VBLENDVPD	Y7, Y5, Y1, Y1
	VBLENDVPD	Y7, Y3, Y4, Y4

	// τ' = τ + quadRoot(qa, qb, qc, lo−τ, hi−τ), bisecting when τ' leaves
	// (lo, hi); a lane whose step is within 4ε·|τ| stops at τ.
	VSUBPD	Y15, Y10, Y2
	VSUBPD	Y15, Y9, Y0
	QUADROOT(Y6, Y1, Y4, Y2, Y0, Y3, Y5)
	VADDPD	Y1, Y15, Y1
	VCMPPD	$0x1e, Y10, Y1, Y3
	VANDPD	Y3, Y4, Y4
	VCMPPD	$0x11, Y9, Y1, Y3
	VANDPD	Y3, Y4, Y4
	MIDPOINT(Y10, Y9, Y3)
	VBLENDVPD	Y4, Y1, Y3, Y1
	VSUBPD	Y15, Y1, Y3
	VANDPD	lanesAbs<>(SB), Y3, Y3
	VANDPD	lanesAbs<>(SB), Y15, Y5
	VMULPD	lanesTiny<>(SB), Y5, Y5
	VCMPPD	$0x12, Y5, Y3, Y3
	VANDNPD	Y13, Y3, Y13
	VBLENDVPD	Y13, Y1, Y15, Y15
	INCQ	BX
	VMOVMSKPD	Y13, R8
	TESTQ	R8, R8
	JNZ	round

done:
	VMOVUPD	Y14, lanes_sigma(DX)
	VMOVUPD	Y15, lanes_t(DX)
	VZEROUPPER
	MOVB	$1, ret+72(FP)
	RET

fail:
	VZEROUPPER
	MOVB	$0, ret+72(FP)
	RET

// func loewnerLanes(kd, kz, delta []float64)
//
// vectors' Löwner products, one column q per lane: with m = len(kd),
// p = −δ[0][q]·δ[m][q], then p ← p·(δ[j′][q]/(kd[q]−kd[j])) for j = 0…m−1 in
// order, j ≠ q, where j′ = j+1 for j < q and j otherwise, and
// kz[q] = Copysign(√|p|, kz[q]); δ's rows are m apart. The lanes past m−1
// of the last block read what follows kd and δ and store nothing.
TEXT ·loewnerLanes(SB), NOSPLIT, $0-72
	MOVQ	kd_base+0(FP), SI
	MOVQ	kd_len+8(FP), CX
	MOVQ	kz_base+24(FP), DI
	MOVQ	delta_base+48(FP), DX
	TESTQ	CX, CX
	JZ	lwdone
	MOVQ	CX, R8
	SHLQ	$3, R8 // a row of δ, in bytes
	MOVQ	CX, R9
	IMULQ	R8, R9 // row m
	VMOVQ	CX, X0
	VPBROADCASTQ	X0, Y15 // m
	XORQ	R10, R10 // the block's first q

lwblock:
	VMOVQ	R10, X0
	VPBROADCASTQ	X0, Y14
	VPADDQ	lanesIota<>(SB), Y14, Y14 // q
	VPCMPGTQ	Y14, Y15, Y13 // q < m
	VMOVUPD	(SI)(R10*8), Y12 // kd[q]
	LEAQ	(DX)(R10*8), AX // δ[0][q]
	VMOVUPD	(AX), Y11
	VXORPD	lanesSign<>(SB), Y11, Y11
	VMULPD	(AX)(R9*1), Y11, Y11 // p
	VPXOR	Y10, Y10, Y10 // j
	XORQ	BX, BX

lwj:
	VPCMPGTQ	Y10, Y14, Y9 // j < q
	VPCMPEQQ	Y10, Y14, Y8 // j = q
	VMOVUPD	(AX), Y0
	VMOVUPD	(AX)(R8*1), Y1
	VBLENDVPD	Y9, Y1, Y0, Y0 // δ[j′][q]
	VBROADCASTSD	(SI)(BX*8), Y2
	VSUBPD	Y2, Y12, Y2
	VDIVPD	Y2, Y0, Y0
	VMULPD	Y0, Y11, Y0
	VBLENDVPD	Y8, Y11, Y0, Y11
	VPADDQ	lanesStep<>(SB), Y10, Y10
	ADDQ	R8, AX
	INCQ	BX
	CMPQ	BX, CX
	JLT	lwj
	VANDPD	lanesAbs<>(SB), Y11, Y11
	VSQRTPD	Y11, Y11
	VANDPD	lanesAbs<>(SB), Y11, Y11
	VMOVUPD	(DI)(R10*8), Y0
	VANDPD	lanesSign<>(SB), Y0, Y0
	VORPD	Y0, Y11, Y11
	VMASKMOVPD	Y11, Y13, (DI)(R10*8)
	ADDQ	$4, R10
	CMPQ	R10, CX
	JLT	lwblock

lwdone:
	VZEROUPPER
	RET

// func normLanes(v []float64, n int, kz, delta []float64, perm []int)
//
// vectors' columns, one root i per lane for i = 0…m (m = len(kz)):
// x_q = −kz[q]/δ[i][q] goes to v[perm[q]][i], nrm = 1 + Σ x_q² in q order,
// then those entries are scaled by inv = 1/√nrm and v[n−1][i] = inv. v's rows
// are n apart and δ's m. The lanes past m of the last block take δ's row m
// and store nothing.
TEXT ·normLanes(SB), NOSPLIT, $0-104
	MOVQ	v_base+0(FP), DI
	MOVQ	n+24(FP), R8
	MOVQ	kz_base+32(FP), SI
	MOVQ	kz_len+40(FP), CX
	MOVQ	delta_base+56(FP), DX
	MOVQ	perm_base+80(FP), R9
	LEAQ	-1(R8), R11
	IMULQ	R8, R11
	SHLQ	$3, R11
	ADDQ	DI, R11 // row n−1
	SHLQ	$3, R8 // a row of v, in bytes
	VMOVQ	CX, X0
	VPBROADCASTQ	X0, Y15 // m
	VPADDQ	lanesStep<>(SB), Y15, Y14 // m+1
	XORQ	R10, R10 // the block's first i

nmblock:
	VMOVQ	R10, X0
	VPBROADCASTQ	X0, Y13
	VPADDQ	lanesIota<>(SB), Y13, Y13 // i
	VPCMPGTQ	Y13, Y14, Y12 // i ≤ m
	VBLENDVPD	Y12, Y13, Y15, Y11
	VPMULUDQ	Y15, Y11, Y11 // min(i, m)·m: δ's row i
	VMOVUPD	lanesOne<>(SB), Y10 // nrm
	TESTQ	CX, CX
	JZ	nmroot
	XORQ	AX, AX

nmq:
	VPCMPEQQ	Y9, Y9, Y9
	VGATHERQPD	Y9, (DX)(Y11*8), Y0 // δ[i][q]
	VBROADCASTSD	(SI)(AX*8), Y1
	VXORPD	lanesSign<>(SB), Y1, Y1
	VDIVPD	Y0, Y1, Y1 // x
	MOVQ	(R9)(AX*8), BX
	IMULQ	R8, BX
	ADDQ	DI, BX
	VMASKMOVPD	Y1, Y12, (BX)(R10*8)
	VMULPD	Y1, Y1, Y1
	VADDPD	Y1, Y10, Y10
	VPADDQ	lanesStep<>(SB), Y11, Y11
	INCQ	AX
	CMPQ	AX, CX
	JLT	nmq

nmroot:
	VSQRTPD	Y10, Y10
	VMOVUPD	lanesOne<>(SB), Y1
	VDIVPD	Y10, Y1, Y1 // inv
	TESTQ	CX, CX
	JZ	nmlast
	XORQ	AX, AX

nmscale:
	MOVQ	(R9)(AX*8), BX
	IMULQ	R8, BX
	ADDQ	DI, BX
	VMASKMOVPD	(BX)(R10*8), Y12, Y0
	VMULPD	Y1, Y0, Y0
	VMASKMOVPD	Y0, Y12, (BX)(R10*8)
	INCQ	AX
	CMPQ	AX, CX
	JLT	nmscale

nmlast:
	VMASKMOVPD	Y1, Y12, (R11)(R10*8)
	ADDQ	$4, R10
	CMPQ	R10, CX
	JLE	nmblock
	VZEROUPPER
	RET
