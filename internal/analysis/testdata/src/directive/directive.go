// Package directive is a fixture for the //streamvet:ignore machinery:
// a well-formed suppression with a reason, and a reasonless directive that
// must itself be reported while leaving its finding unsuppressed.
// TestDirectives asserts on it programmatically (no want comments here,
// since a trailing comment would be parsed as part of the directive).
package directive

import "sync"

func suppressed(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	//streamvet:ignore lockedsend fixture exercises the suppression path
	ch <- 1
	mu.Unlock()
}

func reasonless(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	//streamvet:ignore lockedsend
	ch <- 1
	mu.Unlock()
}
