package stream

import (
	"testing"
	"time"
)

func snap(name string, busy time.Duration, out int64) MetricsSnapshot {
	return MetricsSnapshot{Name: name, Busy: busy, Out: out}
}

func TestSuggestFusionBalances(t *testing.T) {
	metrics := []MetricsSnapshot{
		snap("heavy", 100*time.Millisecond, 0),
		snap("mid-a", 60*time.Millisecond, 0),
		snap("mid-b", 50*time.Millisecond, 0),
		snap("light", 10*time.Millisecond, 0),
	}
	p := SuggestFusion(metrics, 2)
	if len(p) != 4 {
		t.Fatalf("placement covers %d nodes", len(p))
	}
	// heavy must be alone-ish: mid-a and mid-b together on the other PE.
	if p["mid-a"] != p["mid-b"] {
		t.Fatalf("LPT should pair the two mids opposite heavy: %v", p)
	}
	if p["heavy"] == p["mid-a"] {
		t.Fatalf("heavy should not share with mids: %v", p)
	}
	if im := p.Imbalance(metrics); im > 1.3 {
		t.Fatalf("imbalance %v too high", im)
	}
}

func TestSuggestFusionSinglePE(t *testing.T) {
	metrics := []MetricsSnapshot{snap("a", time.Second, 0), snap("b", time.Second, 0)}
	p := SuggestFusion(metrics, 1)
	if p["a"] != 0 || p["b"] != 0 {
		t.Fatalf("single PE placement wrong: %v", p)
	}
	if im := p.Imbalance(metrics); im != 1 {
		t.Fatalf("single PE imbalance = %v", im)
	}
}

func TestSuggestFusionMorePEsThanOps(t *testing.T) {
	metrics := []MetricsSnapshot{snap("a", time.Second, 0)}
	p := SuggestFusion(metrics, 8)
	if len(p) != 1 {
		t.Fatal("all ops must be placed")
	}
}

func TestSuggestFusionPanicsOnZeroPEs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SuggestFusion(nil, 0)
}

func TestImbalanceEmptyAndZero(t *testing.T) {
	var p Placement
	if p.Imbalance(nil) != 1 {
		t.Fatal("empty placement should report 1")
	}
	p = Placement{"a": 0}
	if p.Imbalance([]MetricsSnapshot{snap("a", 0, 0)}) != 1 {
		t.Fatal("zero-busy should report 1")
	}
}

func TestSuggestFusionImprovesNaivePlacement(t *testing.T) {
	// Compare against a naive round-robin placement on a skewed workload.
	metrics := []MetricsSnapshot{
		snap("a", 90*time.Millisecond, 0),
		snap("b", 80*time.Millisecond, 0),
		snap("c", 10*time.Millisecond, 0),
		snap("d", 5*time.Millisecond, 0),
	}
	naive := Placement{"a": 0, "b": 0, "c": 1, "d": 1} // both heavies together
	lpt := SuggestFusion(metrics, 2)
	if lpt.Imbalance(metrics) >= naive.Imbalance(metrics) {
		t.Fatalf("LPT (%v) should beat naive (%v)",
			lpt.Imbalance(metrics), naive.Imbalance(metrics))
	}
}
