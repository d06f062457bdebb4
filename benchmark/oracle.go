package main

import (
	"fmt"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/pipeline"
	"rcep/internal/rules"
)

// digest folds a detection stream into a count and an order-insensitive
// 64-bit multiset hash of (rule, begin, end). Addition, not XOR, combines
// the per-detection hashes, so a detection delivered twice changes the sum
// instead of cancelling itself. Delivery order is deliberately outside the
// digest: the sharded engine and the wire path may legally interleave
// same-instant detections differently from a single engine.
type digest struct {
	count uint64
	sum   uint64
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (d *digest) fold(rule int, begin, end int64) {
	h := mix64(uint64(rule) + 0x9e3779b97f4a7c15)
	h = mix64(h + uint64(begin))
	h = mix64(h + uint64(end))
	d.count++
	d.sum += h
}

func (d digest) String() string { return fmt.Sprintf("%d/%016x", d.count, d.sum) }

// diff is how many detections separate a pass from the reference: the
// count difference, or 1 when the counts agree but the contents do not.
func (d digest) diff(ref digest) uint64 {
	switch {
	case d.count > ref.count:
		return d.count - ref.count
	case d.count < ref.count:
		return ref.count - d.count
	case d.sum != ref.sum:
		return 1
	}
	return 0
}

// bareEngine builds a single-goroutine detect.Engine over the input's
// rules with no store, no conditions and no actions.
func bareEngine(in *inputs, onDetect func(int, *event.Instance)) (*detect.Engine, error) {
	rs, err := rules.ParseScript(in.script)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder()
	if err := rules.NewExecutor(rs, nil, nil, nil).Bind(b); err != nil {
		return nil, err
	}
	return detect.New(detect.Config{
		Graph:    b.Finalize(),
		Groups:   in.groups,
		TypeOf:   in.typeOf,
		OnDetect: onDetect,
	})
}

// reference computes the detection stream every pass must reproduce: the
// stream goes synchronously, one observation at a time, through the same
// duplicate-filter stage function the pipeline uses (when dedup > 0) into
// a bare detect.Engine, and the clock then advances to the horizon. It is
// the slow obvious path; none of batching, sharding, the facade, the wire
// or the store is involved. ingested is how many observations reached the
// engine.
func reference(in *inputs, dedup time.Duration) (d digest, ingested int, err error) {
	eng, err := bareEngine(in, func(rule int, inst *event.Instance) {
		d.fold(rule, int64(inst.Begin), int64(inst.End))
	})
	if err != nil {
		return d, 0, err
	}
	push := func(o event.Observation) error {
		ingested++
		return eng.Ingest(o)
	}
	if dedup > 0 {
		push = pipeline.Dedup(dedup)(push).Push
	}
	for _, o := range in.obs {
		if err := push(o); err != nil {
			return d, ingested, err
		}
	}
	return d, ingested, eng.AdvanceTo(in.horizon)
}
