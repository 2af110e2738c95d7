package eig

import (
	"math"

	"streampca/internal/mat"
)

// OrthoWorkspace holds the column scratch for OrthonormalizeWS so periodic
// re-orthonormalization on the streaming hot path runs without heap
// allocations. Not safe for concurrent use.
type OrthoWorkspace struct {
	col, prev  []float64
	cand, othr []float64
}

// NewOrthoWorkspace preallocates for matrices with r rows.
func NewOrthoWorkspace(r int) *OrthoWorkspace {
	return &OrthoWorkspace{
		col:  make([]float64, r),
		prev: make([]float64, r),
		cand: make([]float64, r),
		othr: make([]float64, r),
	}
}

// Orthonormalize runs modified Gram–Schmidt with one re-orthogonalization
// pass over the columns of a, in place. Columns that are numerically
// dependent on earlier ones are replaced by orthonormal completions. It
// returns the number of columns that had to be replaced.
func Orthonormalize(a *mat.Dense) int {
	return OrthonormalizeWS(a, NewOrthoWorkspace(a.Rows()))
}

// OrthonormalizeWS is Orthonormalize with caller-owned scratch; it performs
// no heap allocations. ws must have been sized for a.Rows() rows.
func OrthonormalizeWS(a *mat.Dense, ws *OrthoWorkspace) int {
	r, c := a.Dims()
	if len(ws.col) != r {
		panic("eig: OrthonormalizeWS workspace row mismatch")
	}
	replaced := 0
	col, prev := ws.col, ws.prev
	for j := 0; j < c; j++ {
		a.Col(j, col)
		orig := mat.Norm2(col)
		for pass := 0; pass < 2; pass++ {
			for k := 0; k < j; k++ {
				a.Col(k, prev)
				mat.Axpy(-mat.Dot(col, prev), prev, col)
			}
		}
		n := mat.Norm2(col)
		if n <= 1e-10*math.Max(1, orig) {
			a.SetCol(j, col) // zero-ish; rebuilt against the j orthonormal ones
			fillOrthonormalColumnInto(a, j, j, ws.cand, ws.othr)
			replaced++
			continue
		}
		mat.Scale(1/n, col)
		a.SetCol(j, col)
	}
	return replaced
}

// OrthonormalityError returns the max-abs deviation of QᵀQ from the
// identity; 0 means perfectly orthonormal columns.
func OrthonormalityError(q *mat.Dense) float64 {
	g := mat.Gram(nil, q)
	c := q.Cols()
	var mx float64
	for i := 0; i < c; i++ {
		for j := 0; j < c; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if d := math.Abs(g.At(i, j) - want); d > mx {
				mx = d
			}
		}
	}
	return mx
}
