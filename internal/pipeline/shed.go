package pipeline

import (
	"sync/atomic"

	"rcep/internal/core/event"
)

// ShedPolicy makes the pipeline's overload behavior explicit. Without
// one, a slow sink backpressures all the way into the source (nothing is
// lost, latency grows without bound). With one, the admission boundary —
// the bounded channel between the source and the first stage — sheds its
// oldest queued batch (under Run, one observation) whenever the source
// would otherwise block, so a saturated pipeline keeps bounded latency
// and degrades coverage, oldest-first, instead.
//
// Shedding never reorders: the survivors are a subsequence of the
// emitted stream, so downstream detection stays correct on what was
// kept. The policy only drops whole observations at admission — stages
// and the sink still see a clean, ordered stream.
type ShedPolicy struct {
	// OnShed observes each dropped observation; it runs on the source
	// goroutine and must not block.
	OnShed func(event.Observation)

	n atomic.Uint64
}

// Shed reports how many observations have been dropped.
func (p *ShedPolicy) Shed() uint64 { return p.n.Load() }

// drop sheds one evicted batch, counting observations, not batches, and
// recycles it.
func (p *ShedPolicy) drop(b event.Batch) {
	p.n.Add(uint64(len(b)))
	if p.OnShed != nil {
		for _, o := range b {
			p.OnShed(o)
		}
	}
	event.PutBatch(b)
}
