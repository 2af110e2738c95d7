package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"streampca/internal/mat"
)

// Binary eigensystem serialization (§III-C: "the intermediate calculation
// results are periodically saved to the disk for future reference"). The
// format is versioned and self-describing:
//
//	magic "SPCA" | version u32 | d u32 | k u32 | count i64
//	| sigma2, sumU, sumV, sumQ f64
//	| mean[d] f64 | values[k] f64 | vectors[d*k] f64 (row-major)
//
// all little-endian.
const (
	persistMagic   = "SPCA"
	persistVersion = 1
)

// WriteEigensystem serializes es to w in the versioned binary format.
func WriteEigensystem(w io.Writer, es *Eigensystem) error {
	if es == nil || es.Vectors == nil {
		return errors.New("core: cannot serialize a nil eigensystem")
	}
	if !es.checkFinite() {
		return errors.New("core: refusing to serialize non-finite eigensystem")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(persistMagic); err != nil {
		return err
	}
	d, k := es.Vectors.Dims()
	if len(es.Mean) != d || len(es.Values) != k {
		return errors.New("core: inconsistent eigensystem shapes")
	}
	hdr := []any{
		uint32(persistVersion), uint32(d), uint32(k), es.Count,
		es.Sigma2, es.SumU, es.SumV, es.SumQ,
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, block := range [][]float64{es.Mean, es.Values, es.Vectors.Data()} {
		if err := binary.Write(bw, binary.LittleEndian, block); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Checkpoint size guards: shapes beyond these are rejected as corrupt
// rather than allocated. maxCheckpointElems caps the total float64 payload
// (~1 GiB) — far above any plausible spectral survey eigensystem, far
// below what a hostile 28-byte header could otherwise demand.
const (
	maxCheckpointDim   = 1 << 24
	maxCheckpointElems = 1 << 27
)

// readFloats reads exactly n little-endian float64 values from r in bounded
// chunks, so memory use grows with the bytes actually present rather than
// with whatever the header claims — a truncated or corrupted checkpoint
// fails fast instead of over-allocating.
func readFloats(r io.Reader, n int) ([]float64, error) {
	const chunk = 1 << 14
	first := n
	if first > chunk {
		first = chunk
	}
	out := make([]float64, 0, first)
	for len(out) < n {
		c := n - len(out)
		if c > chunk {
			c = chunk
		}
		buf := make([]float64, c)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, err
		}
		out = append(out, buf...)
	}
	return out, nil
}

// ReadEigensystem deserializes an eigensystem previously written with
// WriteEigensystem, validating the header, shapes and finiteness. It never
// panics on corrupted or truncated input, and never allocates more memory
// than the input actually backs plus one bounded chunk.
func ReadEigensystem(r io.Reader) (*Eigensystem, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(persistMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, errors.New("core: not a streampca checkpoint (bad magic)")
	}
	var version, d32, k32 uint32
	var count int64
	var sigma2, sumU, sumV, sumQ float64
	for _, v := range []any{&version, &d32, &k32, &count, &sigma2, &sumU, &sumV, &sumQ} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("core: reading checkpoint header: %w", err)
		}
	}
	if version != persistVersion {
		return nil, fmt.Errorf("core: unsupported checkpoint version %d", version)
	}
	d, k := int(d32), int(k32)
	if d <= 0 || k <= 0 || d > maxCheckpointDim || k > d {
		return nil, fmt.Errorf("core: implausible checkpoint shape %dx%d", d, k)
	}
	if int64(d)*int64(k) > maxCheckpointElems {
		return nil, fmt.Errorf("core: checkpoint payload %dx%d exceeds the size limit", d, k)
	}
	mean, err := readFloats(br, d)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint payload: %w", err)
	}
	values, err := readFloats(br, k)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint payload: %w", err)
	}
	vectors, err := readFloats(br, d*k)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint payload: %w", err)
	}
	es := &Eigensystem{
		Mean:    mean,
		Values:  values,
		Vectors: mat.NewDenseData(d, k, vectors),
		Sigma2:  sigma2, SumU: sumU, SumV: sumV, SumQ: sumQ, Count: count,
	}
	if !es.checkFinite() {
		return nil, errors.New("core: checkpoint contains non-finite values")
	}
	return es, nil
}

// SaveCheckpoint writes the engine's current eigensystem to w; it fails
// before warm-up completes.
func (en *Engine) SaveCheckpoint(w io.Writer) error {
	if !en.ready {
		return errors.New("core: engine not initialized yet")
	}
	en.exportBasis()
	return WriteEigensystem(w, &en.state)
}

// ResumeEngine builds a ready engine from a restored eigensystem, skipping
// warm-up. cfg must be shape-compatible with the checkpoint (Dim and
// Components+Extra must match); the forgetting and robustness parameters
// may differ — resuming with a new α, δ or ρ is how an operator retunes a
// long-running analysis without losing its state.
func ResumeEngine(cfg Config, es *Eigensystem) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if es == nil {
		return nil, errors.New("core: resume with nil eigensystem")
	}
	k := cfg.Components + cfg.Extra
	if es.Dim() != cfg.Dim || es.NumComponents() != k {
		return nil, fmt.Errorf("core: checkpoint shape %dx%d does not match config %dx%d",
			es.Dim(), es.NumComponents(), cfg.Dim, k)
	}
	if !es.checkFinite() {
		return nil, errors.New("core: refusing to resume from non-finite eigensystem")
	}
	en := newEngine(cfg)
	en.state = *es.Clone()
	en.ready = true
	en.loadBasis()
	en.minSigma2 = 1e-12*es.Sigma2 + math.SmallestNonzeroFloat64
	return en, nil
}
