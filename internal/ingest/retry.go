package ingest

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"time"
)

// RetryPolicy configures exponential backoff for the network connectors.
// The jitter PRNG is seeded, so a retry schedule — like everything else in
// the fault-injection story — is a pure function of its seed: chaos tests
// can assert the exact delays.
type RetryPolicy struct {
	// MaxAttempts bounds the total tries (default 5; 1 = no retry).
	MaxAttempts int
	// Base is the first delay (default 100 ms).
	Base time.Duration
	// Cap bounds every delay after jitter (default 5 s).
	Cap time.Duration
	// Factor is the exponential growth rate (default 2).
	Factor float64
	// Jitter is the uniform ± fraction applied to each delay (default 0.2;
	// negative disables jitter entirely).
	Jitter float64
	// Seed drives the jitter PRNG.
	Seed uint64
	// Sleep is the delay function (default time.Sleep; tests inject a
	// recorder).
	Sleep func(time.Duration)
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 5 * time.Second
	}
	if p.Factor <= 1 {
		p.Factor = 2
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Backoff produces the policy's delay sequence: Base·Factor^attempt,
// jittered by ±Jitter, capped at Cap.
type Backoff struct {
	p       RetryPolicy
	rng     *rand.Rand
	attempt int
}

// NewBackoff builds the policy's deterministic delay generator.
func NewBackoff(p RetryPolicy) *Backoff {
	p = p.withDefaults()
	return &Backoff{p: p, rng: rand.New(rand.NewPCG(p.Seed, 0xb0ff))}
}

// Next returns the next delay in the schedule.
func (b *Backoff) Next() time.Duration {
	d := float64(b.p.Base)
	for i := 0; i < b.attempt; i++ {
		d *= b.p.Factor
		if d >= float64(b.p.Cap) {
			d = float64(b.p.Cap)
			break
		}
	}
	b.attempt++
	if b.p.Jitter > 0 {
		d *= 1 + b.p.Jitter*(2*b.rng.Float64()-1)
	}
	return time.Duration(min(max(d, 0), float64(b.p.Cap)))
}

// Reset restarts the schedule (the jitter stream keeps advancing, so a
// reset schedule is still deterministic for a fixed call pattern).
func (b *Backoff) Reset() { b.attempt = 0 }

// Retry runs op until it succeeds or the policy's attempts are exhausted,
// sleeping the backoff schedule between tries. op receives the 0-based
// attempt number. The last error is returned wrapped with the attempt
// count.
func Retry[T any](p RetryPolicy, op func(attempt int) (T, error)) (T, error) {
	pd := p.withDefaults()
	b := NewBackoff(p)
	for attempt := 0; ; attempt++ {
		v, err := op(attempt)
		if err == nil {
			return v, nil
		}
		if attempt+1 == pd.MaxAttempts {
			var zero T
			return zero, fmt.Errorf("ingest: %d attempts failed: %w", pd.MaxAttempts, err)
		}
		pd.Sleep(b.Next())
	}
}

// DialCSV connects to a TCP endpoint serving CSV observation lines — the
// client side of the §III-A1 network connector — retrying the dial with
// exponential backoff so an engine restarting after a crash can rejoin a
// cluster whose feed is momentarily unreachable. Close the returned closer
// to drop the connection.
func DialCSV(addr string, opts CSVOptions, p RetryPolicy) (Stream, io.Closer, error) {
	conn, err := Retry(p, func(int) (net.Conn, error) {
		return net.Dial("tcp", addr)
	})
	if err != nil {
		return nil, nil, err
	}
	return NewCSVStream(conn, opts), conn, nil
}
