package ingest

import (
	"math/rand/v2"
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
}

// Backoff produces the policy's delay sequence: Base·Factor^attempt,
// jittered by ±Jitter, capped at Cap.
type Backoff struct {
	p       RetryPolicy
	rng     *rand.Rand
	attempt int
}

// NewBackoff builds the policy's deterministic delay generator, filling in
// the defaults of unset fields.
func NewBackoff(p RetryPolicy) *Backoff {
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
