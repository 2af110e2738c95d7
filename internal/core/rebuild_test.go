package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"streampca/internal/eig"
	"streampca/internal/mat"
)

// TestStructuredRebuildMatchesSVD checks every rank-one rebuild against the
// explicit route it replaces: from the state before the step, materialize
// the d×(k+1) matrix A = [E·diag(√(γ2·λⱼ)) | √yCoef·y] and take the top k of
// eig.ThinSVD(A). γ2 and yCoef are recovered from the running sum q and the
// update report exactly as the engine forms them, and y is the centered
// vector the engine left in its workspace. Each step starts from the same
// state on both sides, so the tolerances are per-step round-off, not
// accumulated drift; steps that re-orthonormalize the basis are skipped.
func TestStructuredRebuildMatchesSVD(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 1))
	d, p := 120, 4
	m := newModel(rng, d, p, []float64{16, 9, 4, 1}, 0.1)
	m.outlier = 0.05
	en, err := NewEngine(Config{Dim: d, Components: p, Alpha: 1 - 1.0/800})
	if err != nil {
		t.Fatal(err)
	}
	alpha := en.Config().Alpha
	k := en.k
	a := mat.NewDense(d, k+1)
	checked := 0
	for i := 0; i < 3000; i++ {
		x, _ := m.sample()
		if !en.Ready() {
			if _, err := en.Observe(x); err != nil {
				t.Fatal(err)
			}
			continue
		}
		st := en.Eigensystem()
		e0, lam0, q0 := st.Vectors.Clone(), mat.CopyVec(st.Values), st.SumQ
		upd, err := en.Observe(x)
		if err != nil {
			t.Fatal(err)
		}
		if upd.Weight == 0 || en.updatesSince == 0 {
			continue
		}
		gamma2 := alpha * q0 / st.SumQ
		yCoef := upd.Sigma2 * upd.Weight / st.SumQ
		for r := 0; r < d; r++ {
			for j := 0; j < k; j++ {
				a.Set(r, j, e0.At(r, j)*math.Sqrt(gamma2*lam0[j]))
			}
			a.Set(r, k, math.Sqrt(yCoef)*en.ws.y[r])
		}
		ref, ok := eig.ThinSVD(a)
		if !ok {
			t.Fatalf("step %d: reference SVD failed", i)
		}
		for j := 0; j < k; j++ {
			want := ref.S[j] * ref.S[j]
			if diff := math.Abs(st.Values[j] - want); diff > 1e-12*lam0[0] {
				t.Fatalf("step %d: λ%d = %v, SVD route %v", i, j, st.Values[j], want)
			}
			var dot, dist float64
			for r := 0; r < d; r++ {
				dot += st.Vectors.At(r, j) * ref.U.At(r, j)
			}
			for r := 0; r < d; r++ {
				dist = math.Max(dist, math.Abs(st.Vectors.At(r, j)-math.Copysign(1, dot)*ref.U.At(r, j)))
			}
			if dist > 1e-10 {
				t.Fatalf("step %d: basis column %d off the SVD route by %g", i, j, dist)
			}
		}
		checked++
	}
	if checked < 2000 {
		t.Fatalf("only %d steps checked", checked)
	}
	// The rank-one rebuild must also keep the basis orthonormal between the
	// periodic re-orthonormalizations.
	if e := eig.OrthonormalityError(en.Eigensystem().Vectors); e > 1e-9 {
		t.Fatalf("structured rebuild let orthonormality drift: %g", e)
	}
}

// TestRankOneKeepsBasisOrientation asserts that a stream of rank-one updates
// never flips a basis vector: each column's inner product with its previous
// value stays positive over 20 000 steps at d = 16. Checkpoints, published
// eigenspectra and XOR-delta snapshots rely on that continuity.
func TestRankOneKeepsBasisOrientation(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 1))
	d, p := 16, 5
	m := newModel(rng, d, p, []float64{25, 16, 9, 4, 1}, 0.1)
	en, err := NewEngine(Config{Dim: d, Components: p, Alpha: 1 - 1.0/5000})
	if err != nil {
		t.Fatal(err)
	}
	var prev *mat.Dense
	updates := 0
	for i := 0; i < 20000; i++ {
		x, _ := m.sample()
		if _, err := en.Observe(x); err != nil {
			t.Fatal(err)
		}
		if !en.Ready() {
			continue
		}
		cur := en.Eigensystem().Vectors
		if prev != nil {
			for j := 0; j < p; j++ {
				var dot float64
				for r := 0; r < d; r++ {
					dot += prev.At(r, j) * cur.At(r, j)
				}
				if dot <= 0 {
					t.Fatalf("step %d: basis column %d flipped (⟨e_old, e_new⟩ = %v)", i, j, dot)
				}
				updates++
			}
		}
		prev = cur.Clone()
	}
	if updates < 99000 {
		t.Fatalf("only %d column-updates checked", updates)
	}
}
