// Package framelife is a golden fixture for the framelife analyzer: pooled
// frame/store lifetimes — release exactly once per path, no use after
// release, no retention in long-lived structures.
package framelife

import (
	"sync"

	"streampca/internal/stream"
)

// recvStore mirrors stream.FrameStore, the pooled backing store: the *store
// naming convention makes it a tracked pooled type.
type recvStore struct {
	buf []byte
}

type pool struct {
	p sync.Pool
}

func (p *pool) get() *recvStore       { return p.p.Get().(*recvStore) }
func (p *pool) put(rs *recvStore)     { p.p.Put(rs) }
func (p *pool) handle(f stream.Frame) {}

type sink struct {
	kept    stream.Frame
	stashed map[int]stream.Frame
	n       int
}

func consume(f stream.Frame) int { return len(f.Tuples) }

// badDoubleRelease releases the same frame twice on one path.
func badDoubleRelease(f stream.Frame) {
	f.Release()
	f.Release() // want "released twice on this path"
}

// badUseAfterRelease touches the payload after handing storage back.
func badUseAfterRelease(f stream.Frame) int {
	f.Release()
	return len(f.Tuples) // want "use of f after it was released"
}

// badBranchDouble releases on one branch, then again unconditionally: the
// join carries may-released into the second call.
func badBranchDouble(f stream.Frame, err bool) {
	if err {
		f.Release()
	}
	f.Release() // want "released twice on this path"
}

// goodBranchRelease releases on the error path and returns; the surviving
// path still owns the frame. This is the lending shape codec.go uses.
func goodBranchRelease(f stream.Frame, err bool) int {
	if err {
		f.Release()
		return 0
	}
	n := consume(f)
	f.Release()
	return n
}

// badLoopRelease releases a loop-outer frame every iteration.
func badLoopRelease(f stream.Frame, rounds []int) {
	for range rounds {
		f.Release() // want "released twice on this path"
	}
}

// badRetainField parks a pooled frame in a long-lived struct.
func badRetainField(s *sink, f stream.Frame) {
	s.kept = f // want "must not be retained in a struct field"
	f.Release()
}

// badRetainMap parks a pooled frame in a map.
func badRetainMap(s *sink, f stream.Frame) {
	s.stashed[s.n] = f // want "must not be retained in a map"
}

// badStoreDoublePut returns the same store to the pool twice.
func badStoreDoublePut(p *pool, rs *recvStore) {
	p.put(rs)
	p.put(rs) // want "released twice on this path"
}

// badStoreUseAfterPut reads a store's buffer after it went back to the pool.
func badStoreUseAfterPut(p *pool, rs *recvStore) int {
	p.put(rs)
	return len(rs.buf) // want "use of rs after it was released"
}

// goodLendViaClosure hands the store off through the frame's Release hook:
// the literal is a separate lifetime, so the put inside it is not a release
// on this function's path.
func goodLendViaClosure(p *pool, rs *recvStore) stream.Frame {
	f := stream.Frame{Release: func() { p.put(rs) }}
	return f
}

// goodGuardIdiom reads the Release field as a nil guard; field reads of
// Release are lifecycle management, not payload use.
func goodGuardIdiom(f stream.Frame) {
	if f.Release != nil {
		f.Release()
	}
}

// goodDeferRelease releases exactly once via defer.
func goodDeferRelease(f stream.Frame) int {
	defer f.Release()
	return consume(f)
}

// badDeferAfterRelease defers a release over a path that already released.
func badDeferAfterRelease(f stream.Frame, err bool) { // want "released by a defer but may already be released"
	defer f.Release()
	if err {
		f.Release()
	}
}

// goodReassign gives the variable a fresh frame between releases.
func goodReassign(f stream.Frame, next func() stream.Frame) {
	f.Release()
	f = next()
	f.Release()
}
