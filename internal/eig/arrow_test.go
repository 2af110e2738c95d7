package eig

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"streampca/internal/mat"
)

// arrowDense materializes the arrowhead [[diag(d), z], [zᵀ, alpha]].
func arrowDense(d, z []float64, alpha float64) *mat.Dense {
	k := len(d)
	h := mat.NewDense(k+1, k+1)
	for j := range d {
		h.Set(j, j, d[j])
		h.Set(j, k, z[j])
		h.Set(k, j, z[j])
	}
	h.Set(k, k, alpha)
	return h
}

// arrowErrors returns max|HV−VΛ| and max|VᵀV−I| for a decomposition of h.
func arrowErrors(h *mat.Dense, vals []float64, v *mat.Dense) (resid, orth float64) {
	hv := mat.Mul(nil, h, v)
	n := h.Rows()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			resid = math.Max(resid, math.Abs(hv.At(i, j)-v.At(i, j)*vals[j]))
		}
	}
	return resid, OrthonormalityError(v)
}

// randArrow draws an arrowhead with k diagonal entries whose magnitudes span
// e^±9, planting the cases deflation must handle: 2- and 3-way ties on the
// diagonal, zero and 1e-20 border entries, and zero diagonal entries.
func randArrow(rng *rand.Rand, k int) (d, z []float64, alpha float64) {
	mag := func() float64 {
		x := math.Exp(18 * (rng.Float64() - 0.5))
		if rng.IntN(2) == 0 {
			return -x
		}
		return x
	}
	d, z = make([]float64, k), make([]float64, k)
	for j := range d {
		d[j], z[j] = mag(), mag()
	}
	for _, j := range rng.Perm(k) {
		switch rng.IntN(12) {
		case 0, 1: // tie with an earlier entry, possibly the third of a triple
			if j > 0 {
				d[j] = d[rng.IntN(j)]
			}
		case 2:
			z[j] = 0
		case 3:
			z[j] = 1e-20
		case 4:
			d[j] = 0
		}
	}
	if rng.IntN(3) == 0 { // descending, as the engine passes it
		sort.Sort(sort.Reverse(sort.Float64Slice(d)))
	}
	return d, z, mag()
}

// TestArrowSymContract holds ArrowSym to the accuracy of a backward-stable
// symmetric eigensolver on 10⁵ random arrowheads of sizes 2…17: residual
// and orthogonality within 64ε, eigenvalues within 1e-13·‖H‖ of cyclic
// Jacobi, descending order.
func TestArrowSymContract(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	trials := 100000
	if testing.Short() {
		trials = 5000
	}
	var worstRes, worstOrth float64
	for trial := 0; trial < trials; trial++ {
		k := 1 + trial%16
		d, z, alpha := randArrow(rng, k)
		h := arrowDense(d, z, alpha)
		ws := NewArrowWorkspace(k)
		vals, v, ok := ArrowSym(d, z, alpha, ws)
		if !ok {
			t.Fatalf("trial %d: ArrowSym failed on finite input d=%v z=%v α=%v", trial, d, z, alpha)
		}
		ref, _, _ := JacobiSym(h, nil)
		hn := math.Max(math.Abs(ref[0]), math.Abs(ref[k]))
		resid, orth := arrowErrors(h, vals, v)
		worstRes, worstOrth = math.Max(worstRes, resid/hn), math.Max(worstOrth, orth)
		if resid > 64*epsilon*hn || orth > 64*epsilon {
			t.Fatalf("trial %d (k=%d): residual %.3g·‖H‖, orthogonality %.3g; d=%v z=%v α=%v",
				trial, k, resid/hn, orth, d, z, alpha)
		}
		for j := range vals {
			if j > 0 && vals[j] > vals[j-1] {
				t.Fatalf("trial %d: values not descending: %v", trial, vals)
			}
			if math.Abs(vals[j]-ref[j]) > 1e-13*hn {
				t.Fatalf("trial %d: value %d is %v, Jacobi %v", trial, j, vals[j], ref[j])
			}
		}
	}
	t.Logf("worst residual %.3g·‖H‖, worst ‖VᵀV−I‖ %.3g", worstRes, worstOrth)
}

// TestArrowSymOrientation pins the sign rule V[j][j] ≥ 0 and the exact
// answer on a diagonal input (all border entries zero).
func TestArrowSymOrientation(t *testing.T) {
	ws := NewArrowWorkspace(3)
	vals, v, ok := ArrowSym([]float64{1, 3, 2}, []float64{0, 0, 0}, -1, ws)
	if !ok || !mat.EqualApproxVec(vals, []float64{3, 2, 1, -1}, 0) {
		t.Fatalf("diagonal arrowhead: ok=%v values %v", ok, vals)
	}
	want := mat.NewDenseData(4, 4, []float64{
		0, 0, 1, 0,
		1, 0, 0, 0,
		0, 1, 0, 0,
		0, 0, 0, 1,
	})
	if !v.EqualApprox(want, 0) {
		t.Fatalf("diagonal arrowhead vectors %v", v.Data())
	}
	rng := rand.New(rand.NewPCG(24, 2))
	for trial := 0; trial < 200; trial++ {
		d, z, alpha := randArrow(rng, 5)
		_, v, _ := ArrowSym(d, z, alpha, NewArrowWorkspace(5))
		for j := 0; j < 6; j++ {
			if v.At(j, j) < 0 {
				t.Fatalf("trial %d: V[%d][%d] = %v < 0", trial, j, j, v.At(j, j))
			}
		}
	}
}

// TestArrowSymZeroAllocs asserts the arrowhead solver is allocation free —
// the contract the engine's per-observation rebuild depends on.
func TestArrowSymZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 3))
	d, z, alpha := randArrow(rng, 5)
	ws := NewArrowWorkspace(5)
	if n := testing.AllocsPerRun(50, func() { ArrowSym(d, z, alpha, ws) }); n != 0 {
		t.Fatalf("ArrowSym allocated %v times per run", n)
	}
}

// FuzzArrowSym feeds arbitrary float64 bit patterns: both paths must agree
// bit for bit (arrowPaths), non-finite input must report ok=false, and any
// finite input must decompose with descending values and residual and
// orthogonality within 64ε of its scale.
func FuzzArrowSym(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(3, 2, 1, 0.5, 0.25, 0.125, 7))
	f.Add(seed(1, 1, 1, 1, 0, 1, 1))
	f.Add(seed(1e300, -1e-300, 5e-324, 1e300, 0, -1e300, 2))
	f.Add(seed(0, 0, 0))
	f.Add(seed(math.NaN(), 1, 2))
	f.Add(seed(1, math.Inf(-1), 2))
	f.Fuzz(func(t *testing.T, b []byte) {
		xs := make([]float64, 0, 33)
		for len(b) >= 8 && len(xs) < 33 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		}
		if len(xs) < 3 {
			return
		}
		k := (len(xs) - 1) / 2
		d, z, alpha := xs[:k], xs[k:2*k], xs[2*k]
		finite := true
		for _, x := range xs[:2*k+1] {
			finite = finite && !math.IsNaN(x) && !math.IsInf(x, 0)
		}
		var paths arrowPaths
		paths.check(t, d, z, alpha)
		vals, v, ok := ArrowSym(d, z, alpha, NewArrowWorkspace(k))
		if ok != finite {
			t.Fatalf("ok=%v for finite=%v input %v", ok, finite, xs)
		}
		if !ok {
			return
		}
		// Check at the power-of-two scale the solver works at, where the
		// residual products cannot overflow. Values that land in the
		// subnormal range carry an absolute rounding error of up to half a
		// quantum 2⁻¹⁰⁷⁴, whatever the solver does; quant is that at scale.
		amax := math.Abs(alpha)
		for j := range d {
			amax = math.Max(amax, math.Max(math.Abs(d[j]), math.Abs(z[j])))
		}
		_, e := math.Frexp(amax)
		sd, sz, sv := make([]float64, k), make([]float64, k), make([]float64, k+1)
		for j := range d {
			sd[j], sz[j] = math.Ldexp(d[j], -e), math.Ldexp(z[j], -e)
		}
		for j, x := range vals {
			if j > 0 && x > vals[j-1] {
				t.Fatalf("values not descending: %v", vals)
			}
			sv[j] = math.Ldexp(x, -e)
		}
		h := arrowDense(sd, sz, math.Ldexp(alpha, -e))
		hn := math.Max(math.Abs(sv[0]), math.Abs(sv[k]))
		quant := math.Ldexp(1, -1074-e)
		if resid, orth := arrowErrors(h, sv, v); resid > 64*epsilon*hn+quant || orth > 64*epsilon {
			t.Fatalf("residual %.3g·‖H‖, orthogonality %.3g for %v", resid/hn, orth, xs)
		}
	})
}

// BenchmarkArrowSym6 and BenchmarkJacobiSym6 time the two solvers on the
// engine's rank-one Gram at k = 5.
func BenchmarkArrowSym6(b *testing.B) {
	d, z, alpha := benchArrow()
	ws := NewArrowWorkspace(5)
	for i := 0; i < b.N; i++ {
		ArrowSym(d, z, alpha, ws)
	}
}

// BenchmarkArrowSymEngine times ArrowSym at k = 5 on 64 engine-shaped
// arrowheads (engineArrow) in turn, on the path init selected and on root's
// scalar path.
func BenchmarkArrowSymEngine(b *testing.B) {
	rng := rand.New(rand.NewPCG(24, 6))
	type arrow struct {
		d, z  []float64
		alpha float64
	}
	cases := make([]arrow, 64)
	for i := range cases {
		cases[i].d, cases[i].z, cases[i].alpha = engineArrow(rng, 5)
	}
	ws := NewArrowWorkspace(5)
	run := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := &cases[i%len(cases)]
			ArrowSym(c.d, c.z, c.alpha, ws)
		}
	}
	b.Run("selected", run)
	b.Run("root", func(b *testing.B) {
		defer func(on bool) { useLanes = on }(useLanes)
		useLanes = false
		run(b)
	})
}

func BenchmarkJacobiSym6(b *testing.B) {
	h := arrowDense(benchArrow())
	ws := NewSymEigWorkspace(6)
	for i := 0; i < b.N; i++ {
		JacobiSym(h, ws)
	}
}

// benchArrow is a typical steady-state rank-one Gram: a decayed descending
// spectrum bordered by a new vector's projections.
func benchArrow() (d, z []float64, alpha float64) {
	return []float64{16, 9, 4, 1, 0.25}, []float64{0.4, -0.3, 0.2, 0.1, -0.05}, 0.3
}

// engineArrow draws the arrowhead of one rank-one engine update: a decayed,
// descending spectrum γλⱼ on the diagonal, bordered by √(γλⱼ·w)·coefⱼ for a
// new row with projections coefⱼ ~ N(0, λⱼ) at weight w ≪ 1, and the corner
// w·‖y‖² with a residual beyond the projections. Such arrowheads are
// near-diagonal: every border entry is small next to the gaps.
func engineArrow(rng *rand.Rand, k int) (d, z []float64, alpha float64) {
	d, z = make([]float64, k), make([]float64, k)
	lam, gamma := 1+10*rng.Float64(), 1-math.Exp(-4-5*rng.Float64())
	w := 1 - gamma
	y2 := rng.ExpFloat64() * lam
	for j := range d {
		lam *= 0.2 + 0.7*rng.Float64()
		coef := rng.NormFloat64() * math.Sqrt(lam)
		d[j], z[j] = gamma*lam, math.Sqrt(gamma*lam*w)*coef
		y2 += coef * coef
	}
	return d, z, w * y2
}

// arrowPaths holds one workspace per k for each of ArrowSym's paths.
type arrowPaths struct{ sel, ref map[int]*ArrowWorkspace }

// check runs ArrowSym on the path init selected and on root's scalar path,
// and fails unless ok, the values and V agree bit for bit.
func (p *arrowPaths) check(t testing.TB, d, z []float64, alpha float64) {
	t.Helper()
	k := len(d)
	if p.sel == nil {
		p.sel, p.ref = map[int]*ArrowWorkspace{}, map[int]*ArrowWorkspace{}
	}
	if p.sel[k] == nil {
		p.sel[k], p.ref[k] = NewArrowWorkspace(k), NewArrowWorkspace(k)
	}
	vals, v, ok := ArrowSym(d, z, alpha, p.sel[k])
	on := useLanes
	useLanes = false
	rvals, rv, rok := ArrowSym(d, z, alpha, p.ref[k])
	useLanes = on
	if ok != rok {
		t.Fatalf("ok=%v, root's path ok=%v for d=%v z=%v α=%v", ok, rok, d, z, alpha)
	}
	if !ok {
		return
	}
	for j, x := range vals {
		if math.Float64bits(x) != math.Float64bits(rvals[j]) {
			t.Fatalf("value %d is %v, root's path %v for d=%v z=%v α=%v", j, x, rvals[j], d, z, alpha)
		}
	}
	for j, x := range v.Data() {
		if y := rv.Data()[j]; math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("V entry %d is %v, root's path %v for d=%v z=%v α=%v", j, x, y, d, z, alpha)
		}
	}
}

// TestArrowSymLanesMatchRoot holds the path init selected (the AVX2 lanes
// on amd64 with AVX2) to root's scalar path bit for bit on 10⁵ randArrow
// cases at k = 1…16 and 10⁵ engine-shaped ones. Where the scalar path is
// the selected one it compares that path with itself.
func TestArrowSymLanesMatchRoot(t *testing.T) {
	if useLanes != mat.AVX2() {
		t.Fatalf("useLanes = %v, mat.AVX2() = %v", useLanes, mat.AVX2())
	}
	t.Logf("AVX2 lanes selected: %v", useLanes)
	rng := rand.New(rand.NewPCG(24, 4))
	trials := 100000
	if testing.Short() {
		trials = 10000
	}
	var p arrowPaths
	for trial := 0; trial < trials; trial++ {
		k := 1 + trial%16
		d, z, alpha := randArrow(rng, k)
		p.check(t, d, z, alpha)
		d, z, alpha = engineArrow(rng, k)
		p.check(t, d, z, alpha)
	}
}

// TestScaleMatchesLdexp: scale's multiply by a normal power of two is
// math.Ldexp bit for bit, into the subnormal range and past overflow.
func TestScaleMatchesLdexp(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 5))
	for trial := 0; trial < 20000; trial++ {
		x := math.Float64frombits(rng.Uint64())
		if math.IsNaN(x) {
			continue
		}
		n := rng.IntN(2*1080) - 1080
		if got, want := scale(x, pow2(n), n), math.Ldexp(x, n); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("scale(%v, 2^%d) = %v, Ldexp %v", x, n, got, want)
		}
	}
}
