package core

import (
	"math/rand/v2"
	"testing"
)

// TestObserveZeroAllocsSteadyState asserts the initialized engine's Observe
// is allocation free — the workspace contract this PR's performance rests
// on. The run spans a ReorthEvery boundary so the periodic
// re-orthonormalization path is covered too.
func TestObserveZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	m := newModel(rng, 80, 3, []float64{9, 4, 1}, 0.05)
	en, err := NewEngine(Config{Dim: 80, Components: 3, Alpha: 1 - 1.0/500, ReorthEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	xs := m.samples(256)
	for i := 0; i <= en.Config().InitSize; i++ {
		if _, err := en.Observe(xs[i%len(xs)]); err != nil {
			t.Fatal(err)
		}
	}
	if !en.Ready() {
		t.Fatal("engine not ready after warm-up")
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		en.Observe(xs[i%len(xs)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Observe allocated %v times per run", allocs)
	}
}
