package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"streampca/internal/mat"
	"streampca/internal/spectra"
)

// spectraRows draws n observations from a gappy, contaminated spectra stream.
func spectraRows(t testing.TB, d, n int, seed uint64) (*spectra.Generator, []spectra.Observation) {
	t.Helper()
	gen, err := spectra.NewGenerator(spectra.GeneratorConfig{
		Grid: spectra.SDSSGrid(d), Rank: 4, GapRate: 0.3, OutlierRate: 0.05, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]spectra.Observation, n)
	for i := range rows {
		rows[i] = gen.Next()
	}
	return gen, rows
}

// feedMaskedBlocks drives en over rows in batches of the given size through
// ObserveBlockMasked and returns every update in order.
func feedMaskedBlocks(t *testing.T, en *Engine, rows []spectra.Observation, batch int) []Update {
	t.Helper()
	var all []Update
	xs := make([][]float64, 0, batch)
	masks := make([][]bool, 0, batch)
	buf := make([]Update, 0, batch)
	for i := 0; i < len(rows); i += batch {
		xs, masks = xs[:0], masks[:0]
		for _, o := range rows[i:min(i+batch, len(rows))] {
			xs, masks = append(xs, o.Flux), append(masks, o.Mask)
		}
		out, err := en.ObserveBlockMasked(xs, masks, buf[:0])
		if err != nil {
			t.Fatalf("ObserveBlockMasked batch at %d: %v", i, err)
		}
		all = append(all, out...)
	}
	return all
}

func outlierCount(us []Update) int {
	n := 0
	for _, u := range us {
		if u.Outlier {
			n++
		}
	}
	return n
}

// eigensystemBytes is the engine state as its checkpoint serialization — the
// bitwise comparison the equal-path contracts below are stated in.
func eigensystemBytes(t *testing.T, en *Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := en.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestObserveBlockMaskedMatchesScalar is the oracle for the in-chunk gap
// patch: the same gappy spectra stream through scalar ObserveMasked and
// through 64-row masked blocks must reach the same estimator — subspace
// affinity to the planted basis, M-scale and outlier decisions — within the
// tolerances the block path already carries for complete rows.
func TestObserveBlockMaskedMatchesScalar(t *testing.T) {
	for _, tc := range []struct{ d, n, extra int }{
		{120, 8000, 0}, {120, 8000, 2}, {1000, 4000, 0}, {1000, 4000, 2},
	} {
		t.Run(fmt.Sprintf("d%d-extra%d", tc.d, tc.extra), func(t *testing.T) {
			gen, rows := spectraRows(t, tc.d, tc.n, 7)
			// Five components on a rank-4 stream, as the benchmark runs it: with
			// exactly four and Extra = 0 the scalar estimator itself lets a
			// contaminant take a direction at d = 120 (affinity 0.77, before and
			// after this path existed), which is no regime to compare paths in.
			cfg := Config{Dim: tc.d, Components: 5, Extra: tc.extra, Alpha: 1 - 1.0/2000}
			seq, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			blk, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var seqUpd []Update
			gappy := 0
			for i, o := range rows {
				u, err := seq.ObserveMasked(o.Flux, o.Mask)
				if err != nil {
					t.Fatalf("row %d: %v", i, err)
				}
				if u.Patched > 0 {
					gappy++
				}
				seqUpd = append(seqUpd, u)
			}
			if gappy < tc.n/5 {
				t.Fatalf("only %d of %d rows were gappy; the stream does not exercise the patch", gappy, tc.n)
			}
			blkUpd := feedMaskedBlocks(t, blk, rows, 64)
			if len(blkUpd) != len(seqUpd) {
				t.Fatalf("%d block updates, want %d", len(blkUpd), len(seqUpd))
			}
			for i := range seqUpd {
				if blkUpd[i].Patched != seqUpd[i].Patched || blkUpd[i].Seq != seqUpd[i].Seq {
					t.Fatalf("row %d: block reports Patched %d Seq %d, scalar %d/%d",
						i, blkUpd[i].Patched, blkUpd[i].Seq, seqUpd[i].Patched, seqUpd[i].Seq)
				}
			}
			truth := gen.TrueBasis()
			as, ab := seq.Eigensystem().SubspaceAffinity(truth), blk.Eigensystem().SubspaceAffinity(truth)
			if as < 0.9 || math.Abs(as-ab) > 1e-3 {
				t.Fatalf("affinity scalar %v block %v", as, ab)
			}
			ss, sb := seq.Eigensystem().Sigma2, blk.Eigensystem().Sigma2
			if math.Abs(ss-sb) > 1e-3*ss {
				t.Fatalf("σ² scalar %v block %v", ss, sb)
			}
			os, ob := outlierCount(seqUpd), outlierCount(blkUpd)
			if os == 0 || math.Abs(float64(os-ob)) > 0.01*float64(os) {
				t.Fatalf("outliers scalar %d block %d", os, ob)
			}
		})
	}
}

// TestObserveBlockMaskedBitwiseContracts pins the two code-path identities: a
// batch of one masked row is ObserveMasked, and an all-true mask is a nil
// mask (so complete rows cost the same arithmetic whichever way a source
// labels them).
func TestObserveBlockMaskedBitwiseContracts(t *testing.T) {
	const d = 120
	_, rows := spectraRows(t, d, 1200, 11)
	cfg := Config{Dim: d, Components: 4, Extra: 1, Alpha: 1 - 1.0/500}
	newPair := func() (*Engine, *Engine) {
		a, _ := NewEngine(cfg)
		b, _ := NewEngine(cfg)
		return a, b
	}

	a, b := newPair()
	for i, o := range rows {
		ua, errA := a.ObserveMasked(o.Flux, o.Mask)
		out, errB := b.ObserveBlockMasked([][]float64{o.Flux}, [][]bool{o.Mask}, nil)
		if errA != nil || errB != nil || len(out) != 1 || out[0] != ua {
			t.Fatalf("row %d: batch of one %+v (%v) vs ObserveMasked %+v (%v)", i, out, errB, ua, errA)
		}
	}
	if !bytes.Equal(eigensystemBytes(t, a), eigensystemBytes(t, b)) {
		t.Fatal("a batch of one masked row must leave the same state as ObserveMasked")
	}

	// Complete rows only, in 16-row batches: all-true masks against nil masks
	// and against the maskless entry point.
	var xs [][]float64
	var full [][]bool
	for _, o := range rows {
		if !hasGap(o.Mask) {
			xs, full = append(xs, o.Flux), append(full, o.Mask)
		}
	}
	a, b = newPair()
	c, _ := NewEngine(cfg)
	for i := 0; i+16 <= len(xs); i += 16 {
		ua, errA := a.ObserveBlock(xs[i:i+16], nil)
		ub, errB := b.ObserveBlockMasked(xs[i:i+16], full[i:i+16], nil)
		uc, errC := c.ObserveBlockMasked(xs[i:i+16], make([][]bool, 16), nil)
		if errA != nil || errB != nil || errC != nil {
			t.Fatal(errA, errB, errC)
		}
		for j := range ua {
			if ua[j] != ub[j] || ua[j] != uc[j] {
				t.Fatalf("row %d: nil masks %+v, all-true %+v, nil entries %+v", i+j, ua[j], ub[j], uc[j])
			}
		}
	}
	want := eigensystemBytes(t, a)
	if !bytes.Equal(want, eigensystemBytes(t, b)) || !bytes.Equal(want, eigensystemBytes(t, c)) {
		t.Fatal("an all-true mask must leave the same state as a nil mask")
	}
}

func hasGap(mask []bool) bool {
	for _, ok := range mask {
		if !ok {
			return true
		}
	}
	return false
}

// TestObserveBlockMaskedSkipsInvalidRows pins validation inside a chunk:
// every kind of unusable gappy row is skipped, the first error is the one
// returned, the rest of the batch is absorbed, and the caller's rows and
// masks come back byte-identical.
func TestObserveBlockMaskedSkipsInvalidRows(t *testing.T) {
	const d = 60
	rng := rand.New(rand.NewPCG(48, 1))
	m := newModel(rng, d, 3, []float64{9, 4, 1}, 0.1)
	en, err := NewEngine(testConfig(d, 3))
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, en, m, 400)
	before := en.Eigensystem().Count

	xs := m.samples(9)
	masks := make([][]bool, len(xs))
	for i := range masks {
		masks[i] = randomMask(rng, d, 0.3)
	}
	masks[0] = nil                           // complete row
	firstObserved := func(mask []bool) int { // an observed bin to poison
		for i, ok := range mask {
			if ok {
				return i
			}
		}
		t.Fatal("mask has no observed bin")
		return -1
	}
	xs[1][firstObserved(masks[1])] = math.NaN() // NaN in an observed bin
	xs[3][firstObserved(masks[3])] = math.Inf(1)
	masks[4] = make([]bool, d) // ≤ k observed bins
	masks[4][0], masks[4][7], masks[4][9] = true, true, true
	masks[6] = make([]bool, d)    // all masked
	masks[7] = masks[7][:d-1]     // wrong-length mask
	for i, ok := range masks[2] { // NaN in the *missing* bins is the norm
		if !ok {
			xs[2][i] = math.NaN()
		}
	}
	const valid = 4 // rows 0, 2, 5, 8

	xsCopy := make([][]float64, len(xs))
	masksCopy := make([][]bool, len(masks))
	for i := range xs {
		xsCopy[i] = mat.CopyVec(xs[i])
		masksCopy[i] = append([]bool(nil), masks[i]...)
	}

	out, err := en.ObserveBlockMasked(xs, masks, nil)
	if err != errGapNonFinite {
		t.Fatalf("first error = %v, want %v", err, errGapNonFinite)
	}
	if len(out) != valid {
		t.Fatalf("got %d updates, want %d", len(out), valid)
	}
	if got := en.Eigensystem().Count - before; got != valid {
		t.Fatalf("engine absorbed %d rows, want %d", got, valid)
	}
	if out[0].Patched != 0 || out[1].Patched == 0 {
		t.Fatalf("Patched = %d, %d; want 0 for the complete row and > 0 for the gappy one", out[0].Patched, out[1].Patched)
	}
	for i := range xs {
		if len(masks[i]) != len(masksCopy[i]) {
			t.Fatalf("mask %d resized", i)
		}
		for j := range masks[i] {
			if masks[i][j] != masksCopy[i][j] {
				t.Fatalf("mask %d written at %d", i, j)
			}
		}
		for j := range xs[i] {
			if math.Float64bits(xs[i][j]) != math.Float64bits(xsCopy[i][j]) {
				t.Fatalf("row %d written at %d", i, j)
			}
		}
	}
	if _, err := en.ObserveBlockMasked(xs, masks[:3], nil); err != errMaskLength {
		t.Fatalf("masks/rows count mismatch: %v", err)
	}
	for _, v := range en.Eigensystem().Mean {
		if math.IsNaN(v) {
			t.Fatal("a skipped row leaked NaN into the mean")
		}
	}
}

// TestObserveBlockResidualCorrectionAvoidsWeightInflation repeats
// TestResidualCorrectionAvoidsWeightInflation (§II-D, E8) through the block
// path: with Extra > 0 the residual of rows patched inside a chunk stays
// comparable to that of the complete rows beside them.
func TestObserveBlockResidualCorrectionAvoidsWeightInflation(t *testing.T) {
	rng := rand.New(rand.NewPCG(305, 6))
	m := newModel(rng, 60, 3, []float64{9, 4, 1}, 0.3)
	cfg := testConfig(60, 3)
	cfg.Extra = 3
	en, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, en, m, 3000)

	var fullR2, maskR2 float64
	const batch = 16
	for b := 0; b < 40; b++ {
		xs := m.samples(batch)
		masks := make([][]bool, batch)
		for i := 1; i < batch; i += 2 {
			masks[i] = randomMask(rng, 60, 0.4)
		}
		out, err := en.ObserveBlockMasked(xs, masks, nil)
		if err != nil || len(out) != batch {
			t.Fatal(len(out), err)
		}
		for i, u := range out {
			if (u.Patched > 0) != (i%2 == 1) {
				t.Fatalf("row %d: Patched = %d", i, u.Patched)
			}
			if u.Patched > 0 {
				maskR2 += u.Residual2
			} else {
				fullR2 += u.Residual2
			}
		}
	}
	ratio := maskR2 / fullR2
	t.Logf("masked/full residual ratio = %.3f", ratio)
	if ratio < 0.35 || ratio > 1.5 {
		t.Fatalf("masked/full residual ratio = %v", ratio)
	}
}

// TestObserveBlockMaskedZeroAllocs asserts that gappy rows keep the block
// path's zero-allocation steady state: every second row of every batch is
// patched inside its chunk.
func TestObserveBlockMaskedZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 4))
	m := newModel(rng, 80, 3, []float64{9, 4, 1}, 0.05)
	cfg := Config{Dim: 80, Components: 3, Extra: 1, Alpha: 1 - 1.0/500, ReorthEvery: 32}
	en, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, en, m, en.Config().InitSize+8)
	const batch = 16
	blocks := make([][][]float64, 8)
	masks := make([][][]bool, len(blocks))
	for b := range blocks {
		blocks[b] = m.samples(batch)
		masks[b] = make([][]bool, batch)
		for i := 0; i < batch; i += 2 {
			masks[b][i] = randomMask(rng, 80, 0.3)
		}
	}
	buf := make([]Update, 0, batch)
	i, patched := 0, 0
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = en.ObserveBlockMasked(blocks[i%len(blocks)], masks[i%len(blocks)], buf[:0])
		for _, u := range buf {
			patched += u.Patched
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state ObserveBlockMasked allocated %v times per run", allocs)
	}
	if patched == 0 {
		t.Fatal("no row was patched; the run did not exercise the gap path")
	}
}

// TestObserveMaskedZeroAllocs asserts the scalar gappy entry points are
// allocation free once warm: ObserveMasked is a chunk of one through the
// workspace-backed patch kernel, and ObserveAuto takes its mask from the
// workspace.
func TestObserveMaskedZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 5))
	m := newModel(rng, 80, 3, []float64{9, 4, 1}, 0.05)
	en, err := NewEngine(Config{Dim: 80, Components: 3, Alpha: 1 - 1.0/500, ReorthEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	feedN(t, en, m, en.Config().InitSize+8)
	xs := m.samples(64)
	masks := make([][]bool, len(xs))
	nan := make([][]float64, len(xs))
	for i := range xs {
		masks[i] = randomMask(rng, 80, 0.3)
		nan[i] = mat.CopyVec(xs[i])
		for j, ok := range masks[i] {
			if !ok {
				nan[i][j] = math.NaN()
			}
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(100, func() {
		if u, err := en.ObserveMasked(xs[i%len(xs)], masks[i%len(xs)]); err != nil || u.Patched == 0 {
			t.Fatal(u, err)
		}
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state ObserveMasked allocated %v times per run", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if u, err := en.ObserveAuto(nan[i%len(nan)]); err != nil || u.Patched == 0 {
			t.Fatal(u, err)
		}
		i++
	}); allocs != 0 {
		t.Fatalf("steady-state ObserveAuto allocated %v times per run", allocs)
	}
}
