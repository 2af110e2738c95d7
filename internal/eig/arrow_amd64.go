package eig

import "streampca/internal/mat"

// useLanes selects rootLanes over root. It follows mat's AVX2 decision, made
// once at init; tests force it off to run root.
var useLanes = mat.AVX2()

// lanes holds four secular roots that secularLanes solves together, one per
// lane of a YMM register. rootLanes fills the start inputs, secularLanes
// leaves each root as σ+τ in sigma and t, and p1, p2 are its scratch.
type lanes struct {
	live, ext   [4]uint64  // all ones: the lane holds a root; the root is extreme (0 or m)
	skip, split [4]int64   // an extreme root's pole, left out of its probe (−1 otherwise); i
	s0, t0      [4]float64 // the probe σ and τ: the pole and 0, or kd[i] and the half interval
	kdi, kdh    [4]float64 // interior roots: kd[i], kd[i−1]
	wa, wb      [4]float64 // interior roots: kz[i]², kz[i−1]²
	qc, lo, hi  [4]float64 // extreme roots: −kz[pole]² and the bracket of τ
	sigma, t    [4]float64
	p1, p2      [4]float64
}

// rootLanes is root for all m+1 roots, four at a time (see secularLanes): it
// leaves the same values and the same delta rows, bit for bit, and false
// when root would fail.
func (ws *ArrowWorkspace) rootLanes(kd, kz []float64, a, znorm float64) bool {
	m := len(kd)
	thr := float64(m+2) * epsilon
	for i0 := 0; i0 <= m; i0 += 4 {
		var ln lanes
		for l := range 4 {
			i := i0 + l
			ln.split[l] = int64(i)
			switch {
			case i > m:
				continue
			case i == 0 || i == m:
				pole, sigma, lo, hi := extremeStart(i, kd, a, znorm)
				ln.ext[l], ln.skip[l], ln.s0[l] = ^uint64(0), int64(pole), sigma
				ln.qc[l], ln.lo[l], ln.hi[l] = -kz[pole]*kz[pole], lo, hi
			default:
				ln.skip[l], ln.s0[l], ln.t0[l] = -1, kd[i], (kd[i-1]-kd[i])/2
				ln.kdi[l], ln.kdh[l] = kd[i], kd[i-1]
				ln.wa[l], ln.wb[l] = kz[i]*kz[i], kz[i-1]*kz[i-1]
			}
			ln.live[l] = ^uint64(0)
		}
		if !secularLanes(kd, kz, a, thr, &ln) {
			return false
		}
		for l := 0; l < 4 && i0+l <= m; l++ {
			i, sigma, t := i0+l, ln.sigma[l], ln.t[l]
			ws.values[i] = sigma + t
			row := ws.delta[i*m : i*m+m]
			for q, d := range kd {
				row[q] = (d - sigma) - t
			}
		}
	}
	return true
}

// secularLanes runs root's start and iteration for the live lanes of ln in
// lockstep, one root per lane, given thr = (m+2)ε. Compares and blends take
// the place of root's branches, and a lane stops where root would return: its
// σ+τ is then the root and (kd[q]−σ)−τ its last evaluation's δ row. It
// returns false if a lane would pass arrowMaxIter.
//
//go:noescape
func secularLanes(kd, kz []float64, a, thr float64, ln *lanes) bool

// loewnerLanes is the first loop of vectors, four columns q at a time (see
// arrow_amd64.s): it leaves the same ẑ in kz, bit for bit. kd and delta are
// read in whole blocks of four past their ends (ArrowWorkspace pads them).
//
//go:noescape
func loewnerLanes(kd, kz, delta []float64)

// normLanes is the second loop of vectors, four roots i at a time: the same
// columns of v, bit for bit.
//
//go:noescape
func normLanes(v []float64, n int, kz, delta []float64, perm []int)
