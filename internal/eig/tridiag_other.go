//go:build !amd64

package eig

func vecMatLanes(dst, x, m []float64, n, stride int) { panic("eig: vecMatLanes needs amd64") }
func rank2Lanes(m, u, t []float64, n, stride int)    { panic("eig: rank2Lanes needs amd64") }
func rank1Lanes(m, w, t []float64, n, stride int)    { panic("eig: rank1Lanes needs amd64") }
func rotateLanes(z []float64, stride int, rots []givens) {
	panic("eig: rotateLanes needs amd64")
}
func transposeLanes(dst, src []float64, n, stride int) { panic("eig: transposeLanes needs amd64") }
