package ingest

import (
	"testing"
	"time"
)

// TestBackoffDeterministic: same seed ⇒ identical delay schedule; delays
// grow exponentially and never exceed the cap.
func TestBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{Base: 10 * time.Millisecond, Cap: 200 * time.Millisecond,
		Factor: 2, Jitter: 0.2, Seed: 99}
	one := NewBackoff(p)
	two := NewBackoff(p)
	for i := 0; i < 12; i++ {
		a, b := one.Next(), two.Next()
		if a != b {
			t.Fatalf("attempt %d: schedules diverged (%v vs %v)", i, a, b)
		}
		if a > p.Cap {
			t.Fatalf("attempt %d: delay %v exceeds cap %v", i, a, p.Cap)
		}
		if a <= 0 {
			t.Fatalf("attempt %d: non-positive delay %v", i, a)
		}
	}
	other := NewBackoff(RetryPolicy{Base: 10 * time.Millisecond, Cap: 200 * time.Millisecond,
		Factor: 2, Jitter: 0.2, Seed: 100})
	diverged := false
	oneAgain := NewBackoff(p)
	for i := 0; i < 12; i++ {
		if oneAgain.Next() != other.Next() {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("different seeds produced identical jitter (suspicious)")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	b := NewBackoff(RetryPolicy{Base: time.Millisecond, Cap: 32 * time.Millisecond,
		Factor: 2, Jitter: -1}) // jitter disabled
	want := []time.Duration{1, 2, 4, 8, 16, 32, 32, 32}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("attempt %d: delay %v, want %v", i, got, w*time.Millisecond)
		}
	}
	b.Reset()
	if got := b.Next(); got != time.Millisecond {
		t.Fatalf("after Reset: %v, want 1ms", got)
	}
}
