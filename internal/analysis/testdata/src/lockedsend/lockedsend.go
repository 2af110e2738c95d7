// Package lockedsend is a golden fixture for the lockedsend analyzer:
// channel operations and sync waits under a held mutex. Blocking I/O under a
// held mutex has its own fixture in testdata/src/blockinglock.
package lockedsend

import (
	"sync"
	"time"
)

type queue struct {
	mu     sync.Mutex
	wg     sync.WaitGroup
	ch     chan int
	closed bool
}

func (q *queue) badSend(v int) {
	q.mu.Lock()
	q.ch <- v // want "channel send while q.mu is locked"
	q.mu.Unlock()
}

func (q *queue) badDeferredRecv() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return <-q.ch // want "channel receive while q.mu is locked"
}

func (q *queue) badWait() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.wg.Wait() // want "blocking call sync.WaitGroup.Wait while q.mu is locked"
}

func (q *queue) badSleep() {
	q.mu.Lock()
	time.Sleep(time.Millisecond) // want "blocking call time.Sleep while q.mu is locked"
	q.mu.Unlock()
}

func (q *queue) badSelect() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // want "blocking select while q.mu is locked"
	case v := <-q.ch:
		return v
	}
}

func (q *queue) badRange() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for v := range q.ch { // want "range over channel while q.mu is locked"
		_ = v
	}
}

// badSendAfterEarlyReturn has the shape of a Close method: the Unlock in the
// if body releases only on the path that returns, so the send after the if
// still runs under q.mu.
func (q *queue) badSendAfterEarlyReturn(v int) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	q.ch <- v // want "channel send while q.mu is locked"
	q.mu.Unlock()
}

func (q *queue) goodSendAfterUnlock(v int) {
	q.mu.Lock()
	q.mu.Unlock()
	q.ch <- v // lock released before the send: fine
}

func (q *queue) goodPoll() (int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	select { // non-blocking thanks to default: fine
	case v := <-q.ch:
		return v, true
	default:
		return 0, false
	}
}

func (q *queue) goodFuncLit() func(int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return func(v int) {
		q.ch <- v // runs after return, when the lock is free: fine
	}
}

type table struct {
	rw sync.RWMutex
	ch chan int
}

func (t *table) badRLockedRecv() {
	t.rw.RLock()
	<-t.ch // want "channel receive while t.rw is locked"
	t.rw.RUnlock()
}
