// Package stream provides timestamp-ordered plumbing between observation
// sources and the detection engine: k-way merging of sorted streams, a
// bounded out-of-order reorder buffer, and duplicate elimination.
package stream

import (
	"container/heap"
	"fmt"
	"time"

	"rcep/internal/core/event"
)

// Merge merges already-sorted streams into one sorted stream.
func Merge(streams ...[]event.Observation) []event.Observation {
	type cursor struct {
		s   []event.Observation
		pos int
	}
	h := &mergeHeap{}
	total := 0
	for _, s := range streams {
		total += len(s)
		if len(s) > 0 {
			h.items = append(h.items, cursor{s, 0})
		}
	}
	heap.Init(h)
	out := make([]event.Observation, 0, total)
	for h.Len() > 0 {
		c := h.items[0]
		out = append(out, c.s[c.pos])
		if c.pos+1 < len(c.s) {
			h.items[0].pos++
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}

type mergeHeap struct {
	items []struct {
		s   []event.Observation
		pos int
	}
}

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	return h.items[i].s[h.items[i].pos].At < h.items[j].s[h.items[j].pos].At
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any) {
	h.items = append(h.items, x.(struct {
		s   []event.Observation
		pos int
	}))
}
func (h *mergeHeap) Pop() any {
	old := h.items
	it := old[len(old)-1]
	h.items = old[:len(old)-1]
	return it
}

// Reorder is a bounded out-of-order buffer: it accepts observations up to
// Slack late and releases them downstream in timestamp order. An
// observation older than the released watermark is reported to OnDrop
// (or silently dropped when OnDrop is nil); one at the watermark itself
// is still released, since the output stays non-decreasing.
type Reorder struct {
	slack     time.Duration
	out       func(event.Observation) error
	OnDrop    func(event.Observation)
	buf       obsHeap
	watermark event.Time // everything <= watermark has been released
	maxSeen   event.Time
}

// NewReorder builds a reorder buffer delivering to out.
func NewReorder(slack time.Duration, out func(event.Observation) error) *Reorder {
	if slack < 0 {
		slack = 0
	}
	return &Reorder{slack: slack, out: out, watermark: event.MinTime, maxSeen: event.MinTime}
}

// Push accepts one observation in any order within the slack bound.
func (r *Reorder) Push(obs event.Observation) error {
	if obs.At < r.watermark {
		if r.OnDrop != nil {
			r.OnDrop(obs)
		}
		return nil
	}
	heap.Push(&r.buf, obs)
	if obs.At > r.maxSeen {
		r.maxSeen = obs.At
	}
	return r.release(r.maxSeen.Add(-r.slack))
}

// Flush releases everything still buffered, in order.
func (r *Reorder) Flush() error {
	return r.release(event.MaxTime)
}

func (r *Reorder) release(upto event.Time) error {
	for len(r.buf) > 0 && r.buf[0].At <= upto {
		obs := heap.Pop(&r.buf).(event.Observation)
		if obs.At > r.watermark {
			r.watermark = obs.At
		}
		if err := r.out(obs); err != nil {
			return fmt.Errorf("stream: deliver %v: %w", obs, err)
		}
	}
	return nil
}

type obsHeap []event.Observation

func (h obsHeap) Len() int           { return len(h) }
func (h obsHeap) Less(i, j int) bool { return h[i].At < h[j].At }
func (h obsHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *obsHeap) Push(x any)        { *h = append(*h, x.(event.Observation)) }
func (h *obsHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Dedup is the low-level duplicate filter of paper §3.1 (Fig. 2's "Event
// Filtering" stage): an observation of the same (reader, object) pair
// within Window of the previous one is a duplicate and is not forwarded.
// The first read of each burst survives, so downstream aggregation rules
// (Rule 4) see clean sequences.
type Dedup struct {
	window time.Duration
	out    func(event.Observation) error

	// OnDuplicate, when set, receives each suppressed observation.
	OnDuplicate func(event.Observation)

	last      map[[2]string]event.Time
	lastPrune event.Time
}

// NewDedup builds a duplicate filter delivering to out.
func NewDedup(window time.Duration, out func(event.Observation) error) *Dedup {
	return &Dedup{
		window: window, out: out,
		last: map[[2]string]event.Time{}, lastPrune: event.MinTime,
	}
}

// Push accepts one observation (in timestamp order) and forwards it unless
// it duplicates a recent one.
func (d *Dedup) Push(obs event.Observation) error {
	key := [2]string{obs.Reader, obs.Object}
	if prev, ok := d.last[key]; ok && obs.At.Sub(prev) <= d.window {
		d.last[key] = obs.At // sliding window: a long burst stays suppressed
		if d.OnDuplicate != nil {
			d.OnDuplicate(obs)
		}
		return nil
	}
	d.last[key] = obs.At
	d.prune(obs.At)
	return d.out(obs)
}

// Flush is a no-op: Dedup holds no pending observations. It satisfies the
// pipeline stage contract.
func (d *Dedup) Flush() error { return nil }

// prune evicts stale entries so the map stays proportional to the number
// of recently active (reader, object) pairs.
func (d *Dedup) prune(now event.Time) {
	if d.lastPrune != event.MinTime && now.Sub(d.lastPrune) < 64*d.window {
		return
	}
	d.lastPrune = now
	for k, t := range d.last {
		if now.Sub(t) > d.window {
			delete(d.last, k)
		}
	}
}
