package pipeline

import (
	"context"
	"math"
	"runtime/debug"
	"slices"
	"testing"

	"streampca/internal/spectra"
	"streampca/internal/stream"
)

// TestPooledTuplesSafeWithBufferReusingSource is the correctness contract of
// the frame pool at its default of frames of one: because the packer copies
// every vector (and mask) into a pooled store before it enters the graph, a
// source that overwrites one scratch buffer on every call must produce
// results identical to one that allocates a fresh vector per tuple.
func TestPooledTuplesSafeWithBufferReusingSource(t *testing.T) {
	const d, n = 60, 6000
	gen, err := spectra.NewGenerator(spectra.GeneratorConfig{
		Grid: spectra.SDSSGrid(d), Rank: 3, Seed: 77, GapRate: 0.2, NoiseSigma: 0.02,
	})
	if err != nil {
		t.Fatal(err)
	}
	vecs := make([][]float64, n)
	masks := make([][]bool, n)
	for i := range vecs {
		obs := gen.Next()
		vecs[i] = append([]float64(nil), obs.Flux...)
		masks[i] = append([]bool(nil), obs.Mask...)
	}

	cfg := engineConfig(d, 3, 500)
	cfg.Extra = 2
	run := func(src Source) []float64 {
		res, err := Run(context.Background(), Config{
			Engine: cfg, NumEngines: 1, Source: src,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Merged == nil {
			t.Fatal("no merged eigensystem")
		}
		return res.Merged.Values
	}

	var i int
	fresh := run(func() ([]float64, []bool, bool) {
		if i >= n {
			return nil, nil, false
		}
		i++
		return vecs[i-1], masks[i-1], true
	})

	// Same data, but recycled through one scratch vector and one scratch
	// mask that the source scribbles over between calls.
	var j int
	buf := make([]float64, d)
	mbuf := make([]bool, d)
	reused := run(func() ([]float64, []bool, bool) {
		if j >= n {
			return nil, nil, false
		}
		copy(buf, vecs[j])
		copy(mbuf, masks[j])
		j++
		return buf, mbuf, true
	})

	if len(fresh) != len(reused) {
		t.Fatalf("component counts differ: %d vs %d", len(fresh), len(reused))
	}
	for k := range fresh {
		if fresh[k] != reused[k] {
			t.Fatalf("eigenvalue %d differs: %v vs %v (buffer reuse corrupted tuples)", k, fresh[k], reused[k])
		}
	}
}

// raceBuild reports whether the test binary runs under the race detector,
// whose sync.Pool drops a random share of Puts (so Gets allocate).
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// releaseHandoff stands in for the goroutine a frame's Release escapes to.
var releaseHandoff func()

// TestFramePoolCycleAllocatesNothing: at steady state the packer's whole
// trip — get a pooled store, pack a complete row and a row whose NaN bins
// derive a mask, hand the frame's Release to the consumer, Release —
// allocates nothing: the store's Release is built once per store and its
// mask block is kept across frames.
func TestFramePoolCycleAllocatesNothing(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's sync.Pool drops Puts")
	}
	const dim = 16
	fp := stream.NewFramePool(dim, 2)
	vec := make([]float64, dim)
	gappy := make([]float64, dim)
	gappy[3] = math.NaN()
	allocs := testing.AllocsPerRun(100, func() {
		fs := fp.Get()
		packRow(fs, 0, vec, nil)
		packRow(fs, 1, gappy, nil)
		f := fs.Frame(stream.Trace{})
		if len(f.Tuples) != 2 || f.Tuples[0].Mask != nil || f.Tuples[1].Mask[3] {
			t.Fatalf("frame %+v", f)
		}
		releaseHandoff = f.Release
		releaseHandoff()
	})
	if allocs != 0 {
		t.Fatalf("pooled get → pack → Release allocates %v per frame, want 0", allocs)
	}
}

// TestFrameStoreDerivesNaNMask: the packer's row copy gives an unmasked row
// containing NaN the mask ObserveAuto would derive (NaN = missing), leaves
// complete rows unmasked — ±Inf alone included, which the engine rejects as
// an observed non-finite bin — and copies explicit masks, also into a
// recycled store that still holds the previous frame's masks.
func TestFrameStoreDerivesNaNMask(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rounds := []struct {
		vecs  [][]float64
		masks [][]bool // the source's masks
		want  [][]bool // the masks the rows leave the packer with
	}{{
		vecs:  [][]float64{{1, nan, 3, nan}, {1, 2, 3, 4}, {nan, 2, 3, 4}},
		masks: [][]bool{nil, nil, {false, true, false, true}},
		want:  [][]bool{{true, false, true, false}, nil, {false, true, false, true}},
	}, {
		vecs:  [][]float64{{nan, 2, 3, 4}, {1, 2, 3, nan}, {1, 2, 3, 4}},
		masks: [][]bool{nil, nil, nil},
		want:  [][]bool{{false, true, true, true}, {true, true, true, false}, nil},
	}, {
		vecs:  [][]float64{{1, inf, 3, -inf}, {inf, nan, 3, 4}, {1, 2, 3, nan}},
		masks: [][]bool{nil, nil, nil},
		want:  [][]bool{nil, {true, false, true, true}, {true, true, true, false}},
	}}
	fp := stream.NewFramePool(4, 3)
	for r, round := range rounds {
		fs := fp.Get()
		for i := range round.vecs {
			packRow(fs, int64(i), round.vecs[i], round.masks[i])
		}
		f := fs.Frame(stream.Trace{})
		for i, tp := range f.Tuples {
			if !slices.Equal(tp.Mask, round.want[i]) || (tp.Mask == nil) != (round.want[i] == nil) {
				t.Fatalf("round %d row %d: mask %v, want %v", r, i, tp.Mask, round.want[i])
			}
		}
		f.Release()
	}
}
