// Package blockinglock is a golden fixture for the blocking-I/O half of the
// lockedsend analyzer: socket and buffered I/O performed while a
// sync.Mutex/RWMutex is held.
package blockinglock

import (
	"bufio"
	"io"
	"net"
	"sync"
)

type edge struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	conn net.Conn
	bw   *bufio.Writer
	buf  []byte
}

func (e *edge) badWriteUnderLock(p []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.conn.Write(p) // want "blocking call net.Write while e.mu is locked"
}

func (e *edge) badReadUnderLock() error {
	e.mu.Lock()
	_, err := e.conn.Read(e.buf) // want "blocking call net.Read while e.mu is locked"
	e.mu.Unlock()
	return err
}

func (e *edge) badReadFullUnderRLock(r io.Reader) error {
	e.rw.RLock()
	defer e.rw.RUnlock()
	_, err := io.ReadFull(r, e.buf) // want "blocking call io.ReadFull while e.rw is locked"
	return err
}

func (e *edge) badFlushUnderLock() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bw.Flush() // want "blocking call bufio.Flush while e.mu is locked"
}

func badDialUnderLock(mu *sync.Mutex, addr string) (net.Conn, error) {
	mu.Lock()
	defer mu.Unlock()
	return net.Dial("tcp", addr) // want "blocking call net.Dial while mu is locked"
}

// goodWriteAfterUnlock snapshots under the lock and performs I/O outside it —
// the pattern the wire layer uses.
func (e *edge) goodWriteAfterUnlock(p []byte) (int, error) {
	e.mu.Lock()
	buf := append([]byte(nil), p...)
	e.mu.Unlock()
	return e.conn.Write(buf)
}

// goodLitIndependent: a function literal's call time is unknown, so the held
// set does not leak into it.
func (e *edge) goodLitIndependent() func() (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return func() (int, error) { return e.conn.Write(e.buf) }
}
