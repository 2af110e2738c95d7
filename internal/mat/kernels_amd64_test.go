package mat

import (
	"math/rand/v2"
	"testing"
)

// TestAVX2SelectedWhenCPUHasIt keeps the bit-identity tests from passing
// vacuously: on a CPU whose CPUID leaf 7 lists AVX2, init must have picked
// the AVX2 kernels.
func TestAVX2SelectedWhenCPUHasIt(t *testing.T) {
	if _, ebx7, _, _ := cpuid(7, 0); ebx7&(1<<5) != 0 && !useAVX2 {
		t.Fatal("CPUID reports AVX2 but init selected the Go kernels")
	}
	t.Logf("AVX2 kernels selected: %v", useAVX2)
}

// TestKernelsDispatchBothPaths runs checkKernels through the dispatching
// entries on the path init selected and again with the Go path forced.
func TestKernelsDispatchBothPaths(t *testing.T) {
	defer func(v bool) { useAVX2 = v }(useAVX2)
	for _, avx2 := range []bool{useAVX2, false} {
		useAVX2 = avx2
		rng := rand.New(rand.NewPCG(17, 19))
		next := specialInput(rng)
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 16, 17, 18, 19, 400, 1001} {
			checkKernels(t, next, n, 1)
		}
	}
}
