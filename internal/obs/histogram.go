package obs

import "sync/atomic"

// Histogram is a lock-free fixed-bucket histogram over int64 samples.
// Bucket boundaries are fixed at construction: bucket i counts samples
// v ≤ bounds[i], and one implicit overflow bucket counts everything above
// the last bound. Record is a linear scan over at most a few dozen bounds
// plus one atomic add — allocation free and safe from any number of
// goroutines, which is what lets the stream runtime call it on the data hot
// path (streamvet-verified).
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last = overflow
	count  atomic.Int64
	sum    atomic.Int64
}

// NewHistogram builds a histogram over the given strictly increasing
// bucket upper bounds. It panics on an empty or non-increasing bounds
// slice — histogram layouts are build-time constants, not runtime data.
func NewHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// HistogramSnapshot is a point-in-time copy of a histogram. Counts[i] is
// the number of samples ≤ Bounds[i]; the final extra entry of Counts is the
// overflow bucket.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds.
	Bounds []int64 `json:"bounds"`
	// Counts has len(Bounds)+1 entries, the last being the overflow bucket.
	Counts []int64 `json:"counts"`
	// Count and Sum aggregate all samples (Sum in the sample's unit).
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
}

// Snapshot copies the current state. Buckets and totals are read without a
// barrier, so a snapshot taken mid-record can be off by in-flight samples —
// each value is itself torn-free.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// MergeFrom adds other's buckets and totals into s — the cluster-side
// histogram merge. Fixed bucket layouts make this exact: two histograms
// over the same bounds merge by plain bucket addition, no rebinning, no
// approximation beyond what one histogram already had. It reports false
// (merging nothing) when the layouts differ; an empty s adopts other's
// layout first.
func (s *HistogramSnapshot) MergeFrom(other HistogramSnapshot) bool {
	if other.Count == 0 && len(other.Bounds) == 0 {
		return true
	}
	if len(s.Bounds) == 0 {
		s.Bounds = append([]int64(nil), other.Bounds...)
		s.Counts = make([]int64, len(other.Counts))
	}
	if len(s.Bounds) != len(other.Bounds) || len(s.Counts) != len(other.Counts) {
		return false
	}
	for i, b := range s.Bounds {
		if other.Bounds[i] != b {
			return false
		}
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Count += other.Count
	s.Sum += other.Sum
	return true
}

// Mean returns the mean sample value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 ≤ q ≤ 1):
// the bound of the first bucket whose cumulative count reaches q·Count.
// Samples in the overflow bucket report the last finite bound.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	target := int64(q * float64(s.Count))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			break
		}
	}
	return s.Bounds[len(s.Bounds)-1]
}

// LatencyBounds is the per-operator Process latency layout: exponential
// (×2) nanosecond buckets from 1µs to ~8.6s, 24 buckets. Sub-microsecond
// dispatches land in the first bucket; anything beyond ~8.6s overflows.
func LatencyBounds() []int64 {
	b := make([]int64, 24)
	v := int64(1_000) // 1µs
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// SizeBounds is the batch-size layout: power-of-two buckets 1..4096 —
// frames land by their tuple count, frames of one in the first bucket.
func SizeBounds() []int64 {
	b := make([]int64, 13)
	v := int64(1)
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// DepthBounds is the queue-depth layout: 0, then powers of two to 4096.
// A zero depth (operator keeping up) is its own bucket so backpressure is a
// one-glance read.
func DepthBounds() []int64 {
	b := make([]int64, 14)
	b[0] = 0
	v := int64(1)
	for i := 1; i < len(b); i++ {
		b[i] = v
		v *= 2
	}
	return b
}
