package mat

// Mul computes C = A·B and returns C. If dst is non-nil it is used as C and
// must have shape A.Rows()×B.Cols(); dst must not alias A or B. With a
// provided dst, Mul performs no heap allocations.
func Mul(dst, a, b *Dense) *Dense {
	if a.cols != b.rows {
		panic("mat: Mul inner dimension mismatch")
	}
	dst = prepDst(dst, a.rows, b.cols)
	// ikj loop order: streams through b row-wise (cache friendly for
	// row-major storage).
	n := b.cols
	for i := 0; i < a.rows; i++ {
		ci := dst.data[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		ai := a.data[i*a.cols : (i+1)*a.cols]
		for k, aik := range ai {
			if aik == 0 {
				continue
			}
			bk := b.data[k*n : (k+1)*n]
			Axpy(aik, bk, ci)
		}
	}
	return dst
}

// MulTA computes C = Aᵀ·B without materializing Aᵀ. A is r×m, B is r×n,
// C is m×n. With a provided dst it performs no heap allocations.
func MulTA(dst, a, b *Dense) *Dense {
	if a.rows != b.rows {
		panic("mat: MulTA row mismatch")
	}
	dst = prepDst(dst, a.cols, b.cols)
	dst.Zero()
	n := b.cols
	for k := 0; k < a.rows; k++ {
		ak := a.data[k*a.cols : (k+1)*a.cols]
		bk := b.data[k*n : (k+1)*n]
		for i, aki := range ak {
			if aki == 0 {
				continue
			}
			Axpy(aki, bk, dst.data[i*n:(i+1)*n])
		}
	}
	return dst
}

// MulBT computes C = A·Bᵀ without materializing Bᵀ. A is m×k, B is n×k,
// C is m×n. With a provided dst it performs no heap allocations.
func MulBT(dst, a, b *Dense) *Dense {
	if a.cols != b.cols {
		panic("mat: MulBT column mismatch")
	}
	dst = prepDst(dst, a.rows, b.rows)
	if useBlocked(a.rows, a.cols, b.rows) {
		mulBTBlocked(dst, a, b)
		return dst
	}
	for i := 0; i < a.rows; i++ {
		ai := a.Row(i)
		ci := dst.Row(i)
		for j := 0; j < b.rows; j++ {
			ci[j] = Dot(ai, b.Row(j))
		}
	}
	return dst
}

// MulVec computes y = A·x. If dst is non-nil it is used as y (length
// A.Rows()); dst must not alias x.
func MulVec(dst []float64, a *Dense, x []float64) []float64 {
	if len(x) != a.cols {
		panic("mat: MulVec length mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.rows)
	} else if len(dst) != a.rows {
		panic("mat: MulVec dst length mismatch")
	}
	for i := 0; i < a.rows; i++ {
		dst[i] = Dot(a.Row(i), x)
	}
	return dst
}

// MulVecT computes y = Aᵀ·x. If dst is non-nil it is used as y (length
// A.Cols()); dst must not alias x.
func MulVecT(dst []float64, a *Dense, x []float64) []float64 {
	if len(x) != a.rows {
		panic("mat: MulVecT length mismatch")
	}
	if dst == nil {
		dst = make([]float64, a.cols)
	} else if len(dst) != a.cols {
		panic("mat: MulVecT dst length mismatch")
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < a.rows; i++ {
		Axpy(x[i], a.Row(i), dst)
	}
	return dst
}

// Gram computes G = AᵀA (Cols×Cols, symmetric). It exploits symmetry,
// computing only the upper triangle and mirroring.
func Gram(dst, a *Dense) *Dense {
	k := a.cols
	dst = prepDst(dst, k, k)
	dst.Zero()
	for r := 0; r < a.rows; r++ {
		row := a.Row(r)
		for i := 0; i < k; i++ {
			if row[i] == 0 {
				continue
			}
			gi := dst.data[i*k : (i+1)*k]
			v := row[i]
			for j := i; j < k; j++ {
				gi[j] += v * row[j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			dst.data[j*k+i] = dst.data[i*k+j]
		}
	}
	return dst
}

// RankOneUpdate performs C += alpha·x·yᵀ in place.
func RankOneUpdate(c *Dense, alpha float64, x, y []float64) {
	if len(x) != c.rows || len(y) != c.cols {
		panic("mat: RankOneUpdate shape mismatch")
	}
	for i := 0; i < c.rows; i++ {
		Axpy(alpha*x[i], y, c.Row(i))
	}
}

// AddScaled performs C += alpha·B in place. Shapes must match.
func AddScaled(c *Dense, alpha float64, b *Dense) {
	if c.rows != b.rows || c.cols != b.cols {
		panic("mat: AddScaled shape mismatch")
	}
	Axpy(alpha, b.data, c.data)
}

func prepDst(dst *Dense, r, c int) *Dense {
	if dst == nil {
		return NewDense(r, c)
	}
	if dst.rows != r || dst.cols != c {
		panic("mat: destination shape mismatch")
	}
	return dst
}
