package mat

import (
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix. The zero value is an empty (0×0)
// matrix; use NewDense or NewDenseData to create one with a shape.
type Dense struct {
	rows, cols int
	data       []float64 // len == rows*cols, row-major
}

// NewDense returns a zeroed r×c matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewDenseData wraps data (row-major, length r*c) as an r×c matrix without
// copying. The caller must not alias data afterwards unless it intends the
// sharing.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Dims returns the row and column counts.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the row count.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a slice sharing the matrix storage.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic("mat: row index out of range")
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// SetRow copies v into row i. It panics if len(v) != Cols().
func (m *Dense) SetRow(i int, v []float64) {
	if len(v) != m.cols {
		panic("mat: SetRow length mismatch")
	}
	copy(m.Row(i), v)
}

// Col copies column j into dst (allocated when nil) and returns it.
func (m *Dense) Col(j int, dst []float64) []float64 {
	if j < 0 || j >= m.cols {
		panic("mat: col index out of range")
	}
	if dst == nil {
		dst = make([]float64, m.rows)
	}
	if len(dst) != m.rows {
		panic("mat: Col dst length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = m.data[i*m.cols+j]
	}
	return dst
}

// SetCol copies v into column j. It panics if len(v) != Rows().
func (m *Dense) SetCol(j int, v []float64) {
	if j < 0 || j >= m.cols {
		panic("mat: col index out of range")
	}
	if len(v) != m.rows {
		panic("mat: SetCol length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Data returns the backing row-major slice. Mutating it mutates the matrix.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// CopyFrom copies the contents of src into m. Shapes must match.
func (m *Dense) CopyFrom(src *Dense) {
	if m.rows != src.rows || m.cols != src.cols {
		panic("mat: CopyFrom shape mismatch")
	}
	copy(m.data, src.data)
}

// Zero sets every entry to 0.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// ScaleAll multiplies every entry by alpha.
func (m *Dense) ScaleAll(alpha float64) {
	for i := range m.data {
		m.data[i] *= alpha
	}
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	t := NewDense(m.cols, m.rows)
	t.TransposeFrom(m)
	return t
}

// TransposeFrom overwrites m with the transpose of src, which must be
// m.Cols()×m.Rows() and must not alias m. It performs no heap allocations.
//
//streampca:noalloc
func (m *Dense) TransposeFrom(src *Dense) {
	if m.rows != src.cols || m.cols != src.rows {
		panic("mat: TransposeFrom shape mismatch")
	}
	for i := 0; i < src.rows; i++ {
		ri := src.data[i*src.cols : (i+1)*src.cols]
		for j, v := range ri {
			m.data[j*m.cols+i] = v
		}
	}
}

// MaxAbs returns the maximum absolute entry (0 for an empty matrix).
func (m *Dense) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 { return Norm2(m.data) }

// EqualApprox reports whether m and b have the same shape and agree
// entrywise within tol.
func (m *Dense) EqualApprox(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	return EqualApproxVec(m.data, b.data, tol)
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// SliceCols returns a new matrix holding columns [j0, j1) of m.
func (m *Dense) SliceCols(j0, j1 int) *Dense {
	if j0 < 0 || j1 > m.cols || j0 > j1 {
		panic("mat: SliceCols range out of bounds")
	}
	s := NewDense(m.rows, j1-j0)
	for i := 0; i < m.rows; i++ {
		copy(s.Row(i), m.Row(i)[j0:j1])
	}
	return s
}

// String renders m for debugging; large matrices are elided.
func (m *Dense) String() string {
	const maxShow = 8
	var b strings.Builder
	fmt.Fprintf(&b, "Dense %dx%d\n", m.rows, m.cols)
	for i := 0; i < m.rows && i < maxShow; i++ {
		for j := 0; j < m.cols && j < maxShow; j++ {
			fmt.Fprintf(&b, "% .4g\t", m.At(i, j))
		}
		if m.cols > maxShow {
			b.WriteString("...")
		}
		b.WriteByte('\n')
	}
	if m.rows > maxShow {
		b.WriteString("...\n")
	}
	return b.String()
}
