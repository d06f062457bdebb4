package event

import (
	"cmp"
	"slices"
	"sync"
)

// Batch is a read-cycle batch of observations: the unit of work the
// batched hot path (DESIGN.md §12) moves between layers. An RFID reader
// reports tags in bursts — one RO_ACCESS_REPORT per antenna read cycle —
// so the natural streaming granule is a small ordered group of
// observations sharing one timestamp window, not a single observation.
// LLRP adapters emit one Batch per read cycle, wire frames carry one
// Batch per sequence number, and the pipeline, shard router and detection
// engines hand whole batches across channel and lock boundaries: one
// channel operation (one lock acquisition, one ingest call) per batch
// instead of per event.
//
// A Batch is a plain observation slice; the semantics live in how it is
// consumed (detect.Engine.IngestBatch advances the virtual clock per
// distinct timestamp inside the batch, exactly as if the observations
// arrived one by one). Producers that emit at high rate should draw
// batches from the pool (GetBatch/PutBatch) so steady-state batching
// allocates nothing.
type Batch []Observation

// Sort orders the batch by timestamp, stably: same-time observations keep
// their order. It stays out of line: inlined into detect.Engine.IngestBatch
// it slowed the ingest loop (detect_only throughput ×0.92, 1 of 10 pairs).
//
//go:noinline
func (b Batch) Sort() {
	slices.SortStableFunc(b, func(x, y Observation) int { return cmp.Compare(x.At, y.At) })
}

// Sorted reports whether observations are in non-decreasing timestamp
// order — the order every ingest path requires. Read cycles arrive
// sorted; consumers use this to skip defensive re-sorting.
func (b Batch) Sorted() bool {
	for i := 1; i < len(b); i++ {
		if b[i].At < b[i-1].At {
			return false
		}
	}
	return true
}

// batchPool recycles batch backing arrays across producer/consumer
// goroutine boundaries (LLRP adapter → pipeline, shard router → worker).
// It holds *Batch boxes, so a put stores a pointer instead of boxing a
// slice header; the emptied boxes recycle through boxPool.
var (
	batchPool = sync.Pool{New: func() any { b := make(Batch, 0, 64); return &b }}
	boxPool   = sync.Pool{New: func() any { return new(Batch) }}
)

// GetBatch returns an empty pooled batch. Pass it to PutBatch when the
// consumer is done with its contents; retaining observations copied OUT
// of the batch is always safe (Observation is a value type).
func GetBatch() Batch {
	box := batchPool.Get().(*Batch)
	b := (*box)[:0]
	*box = nil
	boxPool.Put(box)
	return b
}

// PutBatch recycles a batch's backing array. The caller must not touch
// the slice afterwards. Oversized arrays (from a rare giant read cycle)
// are dropped so the pool converges on the steady-state cycle size.
func PutBatch(b Batch) {
	if cap(b) == 0 || cap(b) > 4096 {
		return
	}
	box := boxPool.Get().(*Batch)
	*box = b[:0]
	batchPool.Put(box)
}
