// Package pipeline runs the paper's Fig. 2 processing architecture
// concurrently: an observation source, a chain of filtering stages
// (duplicate elimination, reordering), and the detection engine, each in
// its own goroutine connected by bounded channels. Backpressure is
// inherent (channel sends block) and cancellation propagates through a
// context.
//
// There is one runner. RunBatches moves whole read-cycle batches
// (event.Batch) over the channels, so every hop — source emit, stage
// hand-off, sink call — costs one channel operation per read cycle. The
// pipeline serializes everything into the final sink stage, so a
// single-goroutine detect.Engine can be fed directly, and a sharded
// engine (internal/core/shard, rcep Config.Shards > 1) fans the
// serialized stream back out across its workers behind the same sink
// (its IngestBatch takes the router lock once per batch).
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/stream"
)

// Stage is a stateful filter: Push transforms/forwards observations to
// the out function it was constructed with; Flush releases anything still
// buffered when the stream ends. stream.Dedup and stream.Reorder satisfy
// this contract.
type Stage interface {
	Push(event.Observation) error
	Flush() error
}

// StageFunc builds a Stage whose output goes to out; the pipeline wires
// out to the next stage's channel when RunBatches starts.
type StageFunc func(out func(event.Observation) error) Stage

// Dedup returns a duplicate-elimination stage (paper §3.1 low-level
// filtering).
func Dedup(window time.Duration) StageFunc {
	return func(out func(event.Observation) error) Stage {
		return stream.NewDedup(window, out)
	}
}

// BatchSource produces whole observation batches — typically one per
// reader read cycle (llrp.Adapter.BatchSink). Ownership of each emitted
// batch transfers to the pipeline, which recycles it (event.PutBatch)
// once consumed; sources drawing from the pool (event.GetBatch) make the
// steady state allocation-free.
type BatchSource func(ctx context.Context, emit func(event.Batch) error) error

// BatchedConfig assembles a pipeline run. Every channel carries a whole
// batch — one send, one receive and one sink call per read cycle instead
// of per observation.
type BatchedConfig struct {
	Source BatchSource
	// Stages are per-observation filters, applied to each batch's
	// contents in order; a stage's output re-groups into pooled batches
	// along the input batch boundaries (a dedup stage may shrink a
	// batch, a reorder stage may hold observations back and release
	// them grouped with a later batch — grouping is a transport
	// granularity, not a semantic boundary).
	Stages []StageFunc
	// Sink consumes each surviving batch — typically the sharded
	// engine's IngestBatch. The pipeline recycles the batch after Sink
	// returns, so the sink must not retain the slice (copying
	// observations out is fine; they are values).
	Sink func(event.Batch) error
	// Buffer is the channel capacity between goroutines, in batches
	// (default 64).
	Buffer int
}

// RunBatches executes a batched pipeline until the source ends or any
// stage fails, returning the first error (or the context's error on
// cancellation). It runs a source, one goroutine per stage and a sink,
// joined by bounded channels of batches.
//
// A source failure does not tear the pipeline down mid-flight: the
// stages drain and flush everything the source emitted before dying, the
// sink consumes it all, and only then does RunBatches return the source
// error — nothing emitted is dropped on the floor.
func RunBatches(ctx context.Context, cfg BatchedConfig) error {
	if cfg.Source == nil || cfg.Sink == nil {
		return errors.New("pipeline: Source and Sink are required")
	}
	buf := cfg.Buffer
	if buf <= 0 {
		buf = 64
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	chans := make([]chan event.Batch, len(cfg.Stages)+1)
	for i := range chans {
		chans[i] = make(chan event.Batch, buf)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	fail := func(err error) {
		record(err)
		cancel()
	}
	send := func(ch chan<- event.Batch) func(event.Batch) error {
		return func(b event.Batch) error {
			select {
			case ch <- b:
				return nil
			case <-ctx.Done():
				event.PutBatch(b)
				return ctx.Err()
			}
		}
	}
	// consume feeds fn every batch from in. It reports closed when in ended
	// (the upstream goroutine finished) and a nil error with closed unset
	// when the run was cancelled.
	consume := func(in <-chan event.Batch, fn func(event.Batch) error) (closed bool, err error) {
		for {
			select {
			case b, ok := <-in:
				if !ok {
					return true, nil
				}
				if err := fn(b); err != nil {
					return false, err
				}
			case <-ctx.Done():
				return false, nil
			}
		}
	}

	// Source goroutine. A source failure is recorded without cancelling:
	// closing chans[0] lets the stages drain, flush, and deliver every
	// batch emitted before the failure.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chans[0])
		if err := cfg.Source(ctx, send(chans[0])); err != nil && !errors.Is(err, context.Canceled) {
			record(fmt.Errorf("pipeline: source: %w", err))
		}
	}()

	// Stage goroutines: unpack each incoming batch through the
	// per-observation stage, re-accumulate its output into a pooled
	// batch, and ship that batch downstream — the channels stay one op
	// per read cycle end to end.
	for i, mk := range cfg.Stages {
		in, out := chans[i], chans[i+1]
		emit := send(out)
		var pend event.Batch
		stage := mk(func(o event.Observation) error {
			if pend == nil {
				pend = event.GetBatch()
			}
			pend = append(pend, o)
			return nil
		})
		seal := func() error {
			if len(pend) == 0 {
				return nil
			}
			b := pend
			pend = nil
			return emit(b)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(out)
			what := fmt.Sprintf("stage %d", i)
			closed, err := consume(in, func(b event.Batch) error {
				defer event.PutBatch(b)
				for _, o := range b {
					if err := stage.Push(o); err != nil {
						return err
					}
				}
				return seal()
			})
			if closed {
				what += " flush"
				if err = stage.Flush(); err == nil {
					err = seal()
				}
			}
			if err != nil && !errors.Is(err, context.Canceled) {
				fail(fmt.Errorf("pipeline: %s: %w", what, err))
			}
		}(i)
	}

	// Sink goroutine: the single consumer feeding the engine, one call
	// per batch; the batch recycles afterwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := consume(chans[len(cfg.Stages)], func(b event.Batch) error {
			defer event.PutBatch(b)
			return cfg.Sink(b)
		})
		if err != nil {
			fail(fmt.Errorf("pipeline: sink: %w", err))
		}
	}()

	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	// External cancellation with no recorded failure still surfaces
	// deterministically instead of reporting a clean run.
	return parent.Err()
}

// BatchSliceSource adapts pre-built batches into a BatchSource; each
// element is copied into a pooled batch at emit time, so callers may
// reuse the input.
func BatchSliceSource(batches [][]event.Observation) BatchSource {
	return func(ctx context.Context, emit func(event.Batch) error) error {
		for _, obs := range batches {
			b := event.GetBatch()
			b = append(b, obs...)
			if err := emit(b); err != nil {
				return err
			}
		}
		return nil
	}
}
