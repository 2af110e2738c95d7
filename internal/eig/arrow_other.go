//go:build !amd64

package eig

// useLanes is false: rootLanes needs AVX2, so root runs everywhere else.
var useLanes = false

func (ws *ArrowWorkspace) rootLanes(kd, kz []float64, a, znorm float64) bool {
	panic("eig: rootLanes needs amd64")
}

func loewnerLanes(kd, kz, delta []float64) { panic("eig: loewnerLanes needs amd64") }

func normLanes(v []float64, n int, kz, delta []float64, perm []int) {
	panic("eig: normLanes needs amd64")
}
