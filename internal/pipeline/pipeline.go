// Package pipeline runs the paper's Fig. 2 processing architecture
// concurrently: an observation source, a chain of filtering stages
// (duplicate elimination, reordering), and the detection engine, each in
// its own goroutine connected by bounded channels. Backpressure is
// inherent (channel sends block) and cancellation propagates through a
// context.
//
// There is one runner. RunBatches moves whole read-cycle batches
// (event.Batch) over the channels, so every hop — source emit, stage
// hand-off, sink call — costs one channel operation per read cycle; Run
// is the same runner fed batches of one. Either way the pipeline
// serializes everything into the final sink stage, so a single-goroutine
// detect.Engine can be fed directly, and a sharded engine
// (internal/core/shard, rcep Config.Shards > 1) fans the serialized
// stream back out across its workers behind the same sink (its
// IngestBatch takes the router lock once per batch).
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

// Source produces observations by calling emit; it returns when the
// stream ends or emit fails. Implementations should honor ctx.
type Source func(ctx context.Context, emit func(event.Observation) error) error

// Stage is a stateful filter: Push transforms/forwards observations to
// the out function it was constructed with; Flush releases anything still
// buffered when the stream ends. stream.Dedup and stream.Reorder satisfy
// this contract.
type Stage interface {
	Push(event.Observation) error
	Flush() error
}

// StageFunc builds a Stage whose output goes to out; the pipeline wires
// out to the next stage's channel at Run time.
type StageFunc func(out func(event.Observation) error) Stage

// Dedup returns a duplicate-elimination stage (paper §3.1 low-level
// filtering).
func Dedup(window time.Duration) StageFunc {
	return func(out func(event.Observation) error) Stage {
		return stream.NewDedup(window, out)
	}
}

// Reorder returns a bounded out-of-order buffering stage.
func Reorder(slack time.Duration) StageFunc {
	return func(out func(event.Observation) error) Stage {
		return stream.NewReorder(slack, out)
	}
}

// Config assembles a pipeline run.
type Config struct {
	Source Source
	Stages []StageFunc
	// Sink consumes the fully filtered, ordered stream — typically
	// detect.Engine.Ingest or rcep.Engine wrappers.
	Sink func(event.Observation) error
	// Buffer is the channel capacity between goroutines (default 256).
	Buffer int
	// Shed, when set, switches the source admission boundary from
	// backpressure to drop-oldest load shedding (see ShedPolicy).
	Shed *ShedPolicy
}

// SourceError wraps a failure originating in the Source, as opposed to a
// stage or sink. RunSupervised restarts only on source failures: a
// broken source (a dropped reader connection) is transient, a broken
// sink (the engine) is not.
type SourceError struct{ Err error }

func (e *SourceError) Error() string { return fmt.Sprintf("pipeline: source: %v", e.Err) }
func (e *SourceError) Unwrap() error { return e.Err }

// Run executes the pipeline until the source ends or any stage fails. It
// returns the first error (or the context's error on cancellation). The
// sink has been flushed when Run returns nil; callers still Close()
// their engine to complete pending pseudo events.
//
// Run is RunBatches with every emitted observation travelling as a
// pooled batch of one, so both share one runner and one set of draining
// and error semantics.
func Run(ctx context.Context, cfg Config) error {
	if cfg.Source == nil || cfg.Sink == nil {
		return errors.New("pipeline: Source and Sink are required")
	}
	buf := cfg.Buffer
	if buf <= 0 {
		buf = 256
	}
	return runBatches(ctx, BatchedConfig{
		Source: func(ctx context.Context, emit func(event.Batch) error) error {
			return cfg.Source(ctx, func(o event.Observation) error {
				return emit(append(event.GetBatch(), o))
			})
		},
		Stages: cfg.Stages,
		Sink: func(b event.Batch) error {
			for _, o := range b {
				if err := cfg.Sink(o); err != nil {
					return err
				}
			}
			return nil
		},
		Buffer: buf,
	}, cfg.Shed)
}

// BatchSource produces whole observation batches — typically one per
// reader read cycle (llrp.Adapter.BatchSink). Ownership of each emitted
// batch transfers to the pipeline, which recycles it (event.PutBatch)
// once consumed; sources drawing from the pool (event.GetBatch) make the
// steady state allocation-free.
type BatchSource func(ctx context.Context, emit func(event.Batch) error) error

// BatchedConfig assembles a batched pipeline run: the same shape as
// Config, but every channel carries a whole batch — one send, one
// receive and one sink call per read cycle instead of per observation.
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
// cancellation).
//
// A source failure does not tear the pipeline down mid-flight: the
// stages drain and flush everything the source emitted before dying, the
// sink consumes it all, and only then does RunBatches return the
// *SourceError. This is what makes supervised restarts loss-free —
// nothing emitted is dropped on the floor.
func RunBatches(ctx context.Context, cfg BatchedConfig) error {
	return runBatches(ctx, cfg, nil)
}

// runBatches is the one runner behind Run and RunBatches: a source, one
// goroutine per stage and a sink, joined by bounded channels of batches.
// With shed set, the admission channel (source → first stage) evicts its
// oldest batch instead of blocking the source.
func runBatches(ctx context.Context, cfg BatchedConfig, shed *ShedPolicy) error {
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
	// batch emitted before the failure. With a ShedPolicy, a full admission
	// channel evicts its oldest batch instead of blocking the source;
	// eviction and consumption race benignly (channel ops are atomic, and
	// either way a slot frees up).
	admit := send(chans[0])
	if shed != nil {
		admit = func(b event.Batch) error {
			for {
				select {
				case chans[0] <- b:
					return nil
				case <-ctx.Done():
					event.PutBatch(b)
					return ctx.Err()
				default:
				}
				select {
				case old := <-chans[0]:
					shed.drop(old)
				default: // the consumer drained it first
				}
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(chans[0])
		if err := cfg.Source(ctx, admit); err != nil && !errors.Is(err, context.Canceled) {
			record(&SourceError{Err: err})
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

// SliceSource adapts a pre-built observation slice into a Source.
func SliceSource(obs []event.Observation) Source {
	return func(ctx context.Context, emit func(event.Observation) error) error {
		for _, o := range obs {
			if err := emit(o); err != nil {
				return err
			}
		}
		return nil
	}
}

// ChanSource adapts a channel into a Source; the stream ends when the
// channel closes.
func ChanSource(ch <-chan event.Observation) Source {
	return func(ctx context.Context, emit func(event.Observation) error) error {
		for {
			select {
			case o, ok := <-ch:
				if !ok {
					return nil
				}
				if err := emit(o); err != nil {
					return err
				}
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}
