package stream

import "sync"

// FrameStore is the storage behind one frame, and the one place the frame
// layout is decided: a single contiguous rows×dim float buffer (one
// allocation serving every tuple, cache-friendly for the engine's block
// path), a byte-per-bin mask block allocated the first time a row needs
// one, and the tuple headers, numbered with consecutive Seq. The packer, the
// wire decoder and the fault injector's duplicate all build frames here.
type FrameStore struct {
	dim     int
	buf     []float64
	masks   []bool
	tuples  []Tuple
	release func()
}

// NewFrameStore returns an unpooled store for up to rows rows of dim bins;
// its frames have a nil Release.
func NewFrameStore(dim, rows int) *FrameStore {
	return &FrameStore{dim: dim, buf: make([]float64, rows*dim), tuples: make([]Tuple, 0, rows)}
}

// Add appends n rows numbered seq, seq+1, … and returns their vectors as
// one contiguous n×dim slice for the caller to fill.
func (fs *FrameStore) Add(seq int64, n int) []float64 {
	i, d := len(fs.tuples), fs.dim
	for r := range n {
		j := (i + r) * d
		fs.tuples = append(fs.tuples, Tuple{Seq: seq + int64(r), Vec: fs.buf[j : j+d : j+d]})
	}
	return fs.buf[i*d : (i+n)*d]
}

// Mask gives row i a mask and returns it for the caller to fill; the store
// reuses the mask block across frames, so every bin must be written.
func (fs *FrameStore) Mask(i int) []bool {
	if fs.masks == nil {
		fs.masks = make([]bool, cap(fs.tuples)*fs.dim)
	}
	m := fs.masks[i*fs.dim : (i+1)*fs.dim : (i+1)*fs.dim]
	fs.tuples[i].Mask = m
	return m
}

// Len returns the number of rows added.
func (fs *FrameStore) Len() int { return len(fs.tuples) }

// Frame returns the rows as a frame, which needs at least one row. A pooled
// store's frame carries the Release that returns the store to its pool.
func (fs *FrameStore) Frame(trace Trace) Frame {
	return Frame{Seq: fs.tuples[0].Seq, Tuples: fs.tuples, Trace: trace, Release: fs.release}
}

// FramePool recycles the stores of frames of one shape between the side
// that fills them and the final consumer, which calls Frame.Release exactly
// once when done. A store's Release is built once, when the pool creates
// it, so a pooled frame's whole trip allocates nothing at steady state.
type FramePool struct {
	dim, rows int
	pool      sync.Pool
}

// NewFramePool returns a pool for frames of dim bins and at most rows rows,
// rows floored at 1 so frames of one are pooled too. It returns nil (no
// pooling) when dim ≤ 0.
func NewFramePool(dim, rows int) *FramePool {
	if dim <= 0 {
		return nil
	}
	rows = max(rows, 1)
	fp := &FramePool{dim: dim, rows: rows}
	fp.pool.New = func() any {
		fs := NewFrameStore(dim, rows)
		fs.release = func() {
			fs.tuples = fs.tuples[:0]
			fp.pool.Put(fs)
		}
		return fs
	}
	return fp
}

// Fits reports whether a frame of n rows of dim bins fits the pool's stores;
// false on a nil pool.
func (fp *FramePool) Fits(dim, n int) bool {
	return fp != nil && dim == fp.dim && n <= fp.rows
}

// Get returns an empty store, lent until its frame's Release.
func (fp *FramePool) Get() *FrameStore {
	return fp.pool.Get().(*FrameStore)
}
