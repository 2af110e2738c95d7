package pipeline

import (
	"math"
	"sync"

	"streampca/internal/mat"
	"streampca/internal/stream"
)

// frameStore is the recyclable storage behind one frame: a single contiguous
// batch×dim vector buffer (one allocation serving every tuple in the frame,
// cache-friendly for the engine's block path), a lazily allocated mask buffer
// for gappy streams, and the tuple headers themselves. Copying every row in
// also frees sources to reuse their own scratch between calls. release, set
// once when the pool creates the store, is the frame's Release.
type frameStore struct {
	dim     int
	buf     []float64
	masks   []bool
	tuples  []stream.Tuple
	release func()
}

func newFrameStore(dim, batch int) *frameStore {
	return &frameStore{
		dim:    dim,
		buf:    make([]float64, batch*dim),
		tuples: make([]stream.Tuple, 0, batch),
	}
}

// add copies one row into the store's next slot. The packer has already
// checked its shape: vec is dim long and mask nil or dim long. The row is
// copied and checked for non-finite values in one pass; only an unmasked
// row that holds one takes the per-bin pass that derives its mask (NaN =
// missing), so every row leaves the packer complete or explicitly masked.
func (fs *frameStore) add(seq int64, vec []float64, mask []bool) {
	i := len(fs.tuples)
	v := fs.buf[i*fs.dim : (i+1)*fs.dim : (i+1)*fs.dim]
	finite := mat.CopyFinite(v, vec)
	var m []bool
	if mask != nil {
		m = fs.maskSlot(i)
		copy(m, mask)
	} else if !finite {
		for j, x := range v {
			if math.IsNaN(x) {
				if m == nil {
					m = fs.maskSlot(i)
					for k := range j {
						m[k] = true
					}
				}
				m[j] = false
			} else if m != nil {
				m[j] = true
			}
		}
	}
	fs.tuples = append(fs.tuples, stream.Tuple{Seq: seq, Vec: v, Mask: m})
}

// maskSlot returns row i's slice of the mask buffer, allocating the buffer
// the first time a row in this store carries a mask.
func (fs *frameStore) maskSlot(i int) []bool {
	if fs.masks == nil {
		fs.masks = make([]bool, cap(fs.tuples)*fs.dim)
	}
	return fs.masks[i*fs.dim : (i+1)*fs.dim : (i+1)*fs.dim]
}

// framePool recycles frame stores between the source and the engines (or the
// wire send edges): the final consumer calls Frame.Release exactly once when
// done, returning the whole store. Every run pools, chaos runs included: a
// fault injector releases the frames it drops and duplicates a pooled frame
// as an unpooled deep copy, so no store ever has two owners.
type framePool struct {
	pool sync.Pool
}

func newFramePool(dim, batch int) *framePool {
	fp := &framePool{}
	fp.pool.New = func() any {
		fs := newFrameStore(dim, batch)
		fs.release = func() { fp.put(fs) }
		return fs
	}
	return fp
}

func (fp *framePool) get() *frameStore {
	//streamvet:ignore workspace-escape intentional lending: the receiving engine calls Frame.Release exactly once, returning the store
	return fp.pool.Get().(*frameStore)
}

func (fp *framePool) put(fs *frameStore) {
	fs.tuples = fs.tuples[:0]
	fp.pool.Put(fs)
}
