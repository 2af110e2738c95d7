// Package wsescape is a golden fixture for the workspace-escape analyzer:
// scratch memory from workspace types and sync.Pool must not outlive the
// function that obtained it.
package wsescape

import "sync"

type scratchWorkspace struct {
	buf []float64
	sum float64
}

type engine struct {
	ws   *scratchWorkspace
	keep []float64
	out  chan []float64
}

func (e *engine) badReturn() []float64 {
	b := e.ws.buf
	return b // want "must not be returned"
}

func (e *engine) badStore() {
	e.keep = e.ws.buf // want "must not be stored into a struct field"
}

func (e *engine) badSend() {
	e.out <- e.ws.buf // want "must not be sent on a channel"
}

type wsPool struct {
	pool sync.Pool
}

func (p *wsPool) badPoolReturn() []float64 {
	b := p.pool.Get().([]float64)
	return b // want "must not be returned"
}

// accumulate sees the workspace through its own parameter — the documented
// lending pattern: the caller owns ws and its lifetime, so field reads do
// not taint.
func accumulate(ws *scratchWorkspace, xs []float64) float64 {
	buf := ws.buf
	total := 0.0
	for i, x := range xs {
		buf[i] = x
		total += x
	}
	return total // scalar derived from scratch: fine
}

// scalarRead proves scalars never taint even through a non-parameter
// workspace.
func (e *engine) scalarRead() float64 {
	return e.ws.sum // fine: a float cannot re-expose the buffer
}

// newScratch declares a workspace-typed result, so returning workspace
// memory is its purpose (the constructor/lender exemption).
func newScratch(n int) *scratchWorkspace {
	return &scratchWorkspace{buf: make([]float64, n)}
}

func (p *wsPool) lend() *scratchWorkspace {
	return p.pool.Get().(*scratchWorkspace) // fine: declared lender
}

// store is pooled under a name that is not a workspace, so lending it
// rests on the pooled-object rule alone.
type store struct {
	buf []float64
}

type storePool struct {
	pool sync.Pool
}

// Get hands out the pooled object itself: fine, the borrower returns it.
func (p *storePool) Get() *store {
	return p.pool.Get().(*store)
}

func (p *storePool) getSlice() []float64 {
	return p.pool.Get().([]float64) // want "must not be returned"
}

func (p *storePool) getBuf() []float64 {
	return p.pool.Get().(*store).buf // want "must not be returned"
}
