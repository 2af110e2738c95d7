package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"streampca/internal/eig"
	"streampca/internal/spectra"
)

// newEngineWidth is NewEngine with the chunk width pinned to c instead of
// the mat.BlockSize pick: the constructor of the width sweeps below.
func newEngineWidth(tb testing.TB, cfg Config, c int) *Engine {
	en, err := NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	en.blockC, en.ws = c, newWorkspace(en.cfg.Dim, en.k, c)
	return en
}

// feedBlocks drives an engine over xs through ObserveBlock in batches of
// size p, reusing one Update buffer, and returns all updates in order.
func feedBlocks(t *testing.T, en *Engine, xs [][]float64, p int) []Update {
	t.Helper()
	var all []Update
	buf := make([]Update, 0, p)
	for i := 0; i < len(xs); i += p {
		end := i + p
		if end > len(xs) {
			end = len(xs)
		}
		out, err := en.ObserveBlock(xs[i:end], buf[:0])
		if err != nil {
			t.Fatalf("ObserveBlock batch at %d: %v", i, err)
		}
		all = append(all, out...)
	}
	return all
}

// TestObserveBlockMatchesSequential runs the block path against the
// per-observation path over an identical 3000-step stream for batch sizes 1,
// 4, 16 and 64. A batch of one must reduce to the sequential code path
// exactly; larger batches use the chunk-start basis for their projections, so
// the comparison there is a convergence contract: the two engines must track
// the same subspace, spectrum and scale within small tolerances rather than
// bitwise.
func TestObserveBlockMatchesSequential(t *testing.T) {
	const steps = 3000
	d, p := 120, 4
	for _, batch := range []int{1, 4, 16, 64} {
		// Exact for batch 1 (code-path identity); approximate beyond.
		affTol, valTol := 1e-12, 1e-12
		if batch > 1 {
			affTol, valTol = 1e-8, 5e-3
		}
		rng := rand.New(rand.NewPCG(47, 1))
		m := newModel(rng, d, p, []float64{16, 9, 4, 1}, 0.1)
		m.outlier = 0.05
		cfg := Config{Dim: d, Components: p, Alpha: 1 - 1.0/800}

		seq, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}

		xs := make([][]float64, steps)
		for i := range xs {
			xs[i], _ = m.sample()
		}
		var seqUpd []Update
		for _, x := range xs {
			u, err := seq.Observe(x)
			if err != nil {
				t.Fatal(err)
			}
			seqUpd = append(seqUpd, u)
		}
		blkUpd := feedBlocks(t, blk, xs, batch)

		if len(blkUpd) != len(seqUpd) {
			t.Fatalf("batch %d: %d updates, want %d", batch, len(blkUpd), len(seqUpd))
		}
		if batch == 1 {
			for i := range seqUpd {
				if seqUpd[i] != blkUpd[i] {
					t.Fatalf("batch 1: update %d diverged: %+v vs %+v", i, blkUpd[i], seqUpd[i])
				}
			}
		}
		if !seq.Ready() || !blk.Ready() {
			t.Fatalf("batch %d: engines not ready", batch)
		}
		ss := seq.Eigensystem()
		sb := blk.Eigensystem()
		if aff := colAffinity(ss.Vectors, sb.Vectors); aff < 1-affTol {
			t.Fatalf("batch %d: subspaces diverged: affinity %v", batch, aff)
		}
		for j := range ss.Values {
			diff := math.Abs(ss.Values[j] - sb.Values[j])
			if diff > valTol*(1+math.Abs(ss.Values[j])) {
				t.Fatalf("batch %d: eigenvalue %d diverged: %v vs %v", batch, j, sb.Values[j], ss.Values[j])
			}
		}
		if s := math.Abs(ss.Sigma2 - sb.Sigma2); s > valTol*(1+ss.Sigma2) {
			t.Fatalf("batch %d: scales diverged: %v vs %v", batch, sb.Sigma2, ss.Sigma2)
		}
		if sb.Count != ss.Count {
			t.Fatalf("batch %d: counts diverged: %d vs %d", batch, sb.Count, ss.Count)
		}
		// The block rebuild must keep the basis orthonormal on its own.
		if e := eig.OrthonormalityError(sb.Vectors); e > 1e-9 {
			t.Fatalf("batch %d: block rebuild let orthonormality drift: %g", batch, e)
		}
	}
}

// TestObserveBlockSkipsInvalidRows pins the drop semantics: malformed rows
// inside a batch are skipped, the surrounding valid rows are still absorbed,
// and the first error is reported after the whole batch has been processed.
func TestObserveBlockSkipsInvalidRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 2))
	d := 40
	m := newModel(rng, d, 2, []float64{9, 1}, 0.1)
	en, err := NewEngine(Config{Dim: d, Components: 2, Alpha: 1 - 1.0/300})
	if err != nil {
		t.Fatal(err)
	}
	warm := m.samples(en.Config().InitSize + 8)
	if _, err := en.ObserveBlock(warm, nil); err != nil {
		t.Fatal(err)
	}
	if !en.Ready() {
		t.Fatal("engine not ready after warm-up")
	}
	before := en.Eigensystem().Count

	batch := m.samples(6)
	batch[1] = batch[1][:d-1] // wrong length
	bad := m.samples(1)[0]
	bad[3] = math.NaN()
	batch[4] = bad
	out, err := en.ObserveBlock(batch, nil)
	if err == nil {
		t.Fatal("expected an error for the malformed rows")
	}
	if len(out) != 4 {
		t.Fatalf("got %d updates, want 4 (two rows skipped)", len(out))
	}
	if got := en.Eigensystem().Count - before; got != 4 {
		t.Fatalf("engine absorbed %d rows, want 4", got)
	}
}

// TestObserveBlockZeroAllocs asserts the steady-state block path is
// allocation free when the caller reuses the Update buffer — the contract the
// batched pipeline transport relies on. ReorthEvery is half a block, so the
// re-orthonormalization (and the basis export/load around it) runs inside
// every measured call: AllocsPerRun floors its per-run mean, so a path taken
// only every few runs could allocate unseen.
func TestObserveBlockZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 3))
	m := newModel(rng, 80, 3, []float64{9, 4, 1}, 0.05)
	en, err := NewEngine(Config{Dim: 80, Components: 3, Alpha: 1 - 1.0/500, ReorthEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	warm := m.samples(en.Config().InitSize + 8)
	if _, err := en.ObserveBlock(warm, nil); err != nil {
		t.Fatal(err)
	}
	if !en.Ready() {
		t.Fatal("engine not ready after warm-up")
	}
	const batch = 16
	blocks := make([][][]float64, 8)
	for b := range blocks {
		blocks[b] = m.samples(batch)
	}
	buf := make([]Update, 0, batch)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = en.ObserveBlock(blocks[i%len(blocks)], buf[:0])
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state ObserveBlock allocated %v times per run", allocs)
	}
}

// TestObserveBlockMatchesObserveAcrossWidths is the chunk-width oracle: the
// same 3000 post-warm-up rows through scalar Observe and through ObserveBlock
// (64-row batches) at each chunk width c. The block path projects a
// chunk's rows on its chunk-start basis, so widths differ in rounding and in
// that approximation; each case's |Δaffinity| to the planted basis, largest
// relative eigenvalue gap and relative σ² gap against Observe must stay under
// 10× the values measured when the table below was committed (logged with
// -v). The gaps grow with c: that is the chunk-start-basis approximation, not
// rounding.
func TestObserveBlockMatchesObserveAcrossWidths(t *testing.T) {
	const rows = 3000
	// {d, c}: {|Δaffinity|, eigenvalue gap, σ² gap}, rounded up.
	measured := map[[2]int][3]float64{
		{16, 2}:    {1.6e-8, 9.4e-5, 6.5e-5},
		{16, 4}:    {1.3e-8, 3.5e-4, 1.3e-4},
		{16, 6}:    {4.8e-9, 1.1e-3, 4.5e-4},
		{16, 8}:    {2e-8, 1.3e-3, 5.6e-4},
		{16, 11}:   {4.5e-8, 2.1e-3, 1e-3},
		{16, 15}:   {9.1e-9, 3.5e-3, 1.8e-3},
		{16, 16}:   {6.5e-8, 4.3e-3, 2e-3},
		{400, 2}:   {3.9e-8, 1.2e-4, 4.9e-5},
		{400, 4}:   {9.7e-8, 3.2e-4, 1.5e-4},
		{400, 6}:   {2.2e-7, 8.2e-4, 3.5e-4},
		{400, 8}:   {3.8e-7, 1.3e-3, 5.6e-4},
		{400, 11}:  {5.1e-7, 1.8e-3, 7.8e-4},
		{400, 15}:  {6.6e-7, 2.5e-3, 1.1e-3},
		{400, 16}:  {7.8e-7, 2.6e-3, 1.1e-3},
		{1000, 2}:  {1.1e-7, 2.8e-4, 1.1e-4},
		{1000, 4}:  {6e-7, 8.4e-4, 3.3e-4},
		{1000, 6}:  {7.7e-7, 1.1e-3, 4.2e-4},
		{1000, 8}:  {1.8e-6, 2.3e-3, 8.5e-4},
		{1000, 11}: {1.8e-6, 2.4e-3, 9.3e-4},
		{1000, 15}: {2.7e-6, 3.4e-3, 1.4e-3},
		{1000, 16}: {3.2e-6, 4.1e-3, 1.6e-3},
	}
	for _, d := range []int{16, 400, 1000} {
		rng := rand.New(rand.NewPCG(49, uint64(d)))
		m := newModel(rng, d, 5, []float64{25, 16, 9, 4, 1}, 0.1)
		m.outlier = 0.05
		cfg := Config{Dim: d, Components: 5, Alpha: 1 - 1.0/2000}
		xs := m.samples(cfg.Components*4 + rows) // InitSize defaults to 4k
		seq, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			if _, err := seq.Observe(x); err != nil {
				t.Fatal(err)
			}
		}
		ss := seq.Eigensystem()
		affSeq := ss.SubspaceAffinity(m.basis)
		for _, c := range []int{2, 4, 6, 8, 11, 15, 16} {
			blk := newEngineWidth(t, cfg, c)
			feedBlocks(t, blk, xs, 64)
			sb := blk.Eigensystem()
			dAff := math.Abs(sb.SubspaceAffinity(m.basis) - affSeq)
			var dVal float64
			for j := range ss.Values {
				dVal = math.Max(dVal, math.Abs(sb.Values[j]-ss.Values[j])/ss.Values[j])
			}
			dSigma := math.Abs(sb.Sigma2-ss.Sigma2) / ss.Sigma2
			t.Logf("d=%4d c=%2d: |Δaffinity| %.2e  eigenvalue gap %.2e  σ² gap %.2e", d, c, dAff, dVal, dSigma)
			if m := measured[[2]int{d, c}]; dAff > 10*m[0] || dVal > 10*m[1] || dSigma > 10*m[2] {
				t.Errorf("d=%d c=%d: block path off scalar Observe beyond 10× %v", d, c, m)
			}
		}
	}
}

// BenchmarkObserveBlock re-checks the cost model's chunk width
// (mat.BlockSize picks 6 at d=400 and d=1000): each d-*/c-* lane pins the
// width to c and absorbs 64-row batches of the Gaussian workload, reporting
// ns/row (ns/op ÷ 64). `make bench-width` runs the sweep; the root package's
// BenchmarkObserveBlock times the picked width.
func BenchmarkObserveBlock(b *testing.B) {
	lane := func(b *testing.B, d, c int) {
		gen, err := spectra.NewSignalGenerator(spectra.SignalConfig{Dim: d, Signals: 5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		en := newEngineWidth(b, Config{Dim: d, Components: 5, Alpha: 1 - 1.0/5000}, c)
		const batch = 64
		blocks := make([][][]float64, 4)
		for j := range blocks {
			blocks[j] = make([][]float64, batch)
			for i := range blocks[j] {
				blocks[j][i], _ = gen.Next()
			}
		}
		for i := 0; i <= en.cfg.InitSize; i++ {
			en.Observe(blocks[0][i%batch])
		}
		out := make([]Update, 0, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if out, err = en.ObserveBlock(blocks[i%len(blocks)], out[:0]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*batch), "ns/row")
	}
	for _, d := range []int{400, 1000} {
		for _, c := range []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 15} {
			b.Run(fmt.Sprintf("d-%d/c-%d", d, c), func(b *testing.B) { lane(b, d, c) })
		}
	}
	b.Run("gappy/d-1000", benchObserveGappy)
}

// benchObserveGappy is BenchmarkObserveBlock's gappy lane: 64-row batches of
// d = 1000 synthetic spectra, 30% of them with coverage gaps, through
// ObserveBlockMasked at the width the cost model picks, in ns/row.
func benchObserveGappy(b *testing.B) {
	const d, batch = 1000, 64
	gen, err := spectra.NewGenerator(spectra.GeneratorConfig{Grid: spectra.SDSSGrid(d), GapRate: 0.3, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	en, err := NewEngine(Config{Dim: d, Components: 5, Alpha: 1 - 1.0/5000})
	if err != nil {
		b.Fatal(err)
	}
	xs, masks := make([][][]float64, 4), make([][][]bool, 4)
	for j := range xs {
		xs[j], masks[j] = make([][]float64, batch), make([][]bool, batch)
		for i := range xs[j] {
			o := gen.Next()
			xs[j][i], masks[j][i] = o.Flux, o.Mask
		}
	}
	out := make([]Update, 0, batch)
	for j := 0; !en.Ready(); j++ {
		out, _ = en.ObserveBlockMasked(xs[j%len(xs)], masks[j%len(xs)], out[:0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(xs)
		if out, err = en.ObserveBlockMasked(xs[j], masks[j], out[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*batch), "ns/row")
}
