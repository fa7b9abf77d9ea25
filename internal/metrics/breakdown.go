package metrics

import "sort"

// Breakdown groups latency samples by a comparable key — service class,
// query fanout, cluster name — so experiments can verify the SLO per query
// type, which the paper stresses: "meeting the tail latency SLO for queries
// as a whole does not guarantee that queries of individual types can meet
// the tail latency SLO" (Section IV.B).
type Breakdown[K comparable] struct {
	// keys and recs are parallel, in first-observation order, so
	// traversals (Each, Reset) are deterministic (K is only comparable,
	// not sortable). They are also the index: a breakdown holds a handful
	// of keys — classes, fanouts, class×fanout types, clusters — and a
	// scan of that handful beats hashing the key on every sample. The
	// scan runs newest-first, which keeps a timeline's many buckets cheap
	// too: samples arrive in near-time order, so the bucket wanted is the
	// last or next-to-last one added.
	keys []K
	recs []*LatencyRecorder
	hint int
	// free holds recorders released by Reset so Observe can reuse them
	// (with their sample capacity) instead of allocating per key.
	free []*LatencyRecorder
}

// NewBreakdown returns an empty breakdown; capacityHint sizes each per-key
// recorder on first use.
func NewBreakdown[K comparable](capacityHint int) *Breakdown[K] {
	return &Breakdown[K]{hint: capacityHint}
}

// find returns key's position in keys and recs, or -1.
//
//tg:hotpath
func (b *Breakdown[K]) find(key K) int {
	for i := len(b.keys) - 1; i >= 0; i-- {
		if b.keys[i] == key {
			return i
		}
	}
	return -1
}

// Observe records a sample under the given key.
//
//tg:hotpath
func (b *Breakdown[K]) Observe(key K, v float64) error {
	i := b.find(key)
	if i < 0 {
		var r *LatencyRecorder
		if n := len(b.free); n > 0 {
			r = b.free[n-1]
			b.free[n-1] = nil
			b.free = b.free[:n-1]
		} else {
			r = NewLatencyRecorder(b.hint)
		}
		i = len(b.keys)
		b.keys = append(b.keys, key)
		b.recs = append(b.recs, r)
	}
	return b.recs[i].Observe(v)
}

// Recorder returns the recorder for key, or nil if no sample was recorded
// under it.
func (b *Breakdown[K]) Recorder(key K) *LatencyRecorder {
	if i := b.find(key); i >= 0 {
		return b.recs[i]
	}
	return nil
}

// Len returns the number of distinct keys observed.
func (b *Breakdown[K]) Len() int { return len(b.keys) }

// Total returns the total number of samples across all keys.
func (b *Breakdown[K]) Total() int {
	var n int
	for _, r := range b.recs {
		n += r.Count()
	}
	return n
}

// Each calls fn for every (key, recorder) pair in first-observation
// order, which is deterministic for a deterministic workload.
func (b *Breakdown[K]) Each(fn func(key K, r *LatencyRecorder)) {
	for i, k := range b.keys {
		fn(k, b.recs[i])
	}
}

// Reset discards all keys and samples, keeping the key and recorder
// slices' capacity and the recorders for reuse. They go onto the
// freelist newest-first, so Observe, which pops from its end, hands the
// first key of the next round the first key's recorder: a workload that
// observes its keys in the same order every round keeps each recorder's
// capacity with the key that grew it, instead of rotating capacities
// until every recorder is as large as the largest.
func (b *Breakdown[K]) Reset() {
	for i := len(b.recs) - 1; i >= 0; i-- {
		r := b.recs[i]
		r.Reset()
		b.free = append(b.free, r)
		b.recs[i] = nil
	}
	clear(b.keys)
	b.keys = b.keys[:0]
	b.recs = b.recs[:0]
}

// IntKeys returns the observed keys of an integer-keyed breakdown in
// ascending order. It is a convenience for the common fanout/class cases.
func IntKeys[K ~int](b *Breakdown[K]) []K {
	keys := append([]K(nil), b.keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
