//go:build !amd64

package eig

// useLanes is false: rootLanes needs AVX2, so root runs everywhere else.
var useLanes = false

func (ws *ArrowWorkspace) rootLanes(kd, kz []float64, a, znorm float64) bool {
	panic("eig: rootLanes needs amd64")
}
