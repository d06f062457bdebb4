package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/sim"
	"rcep/internal/stream"
)

func ts(sec float64) event.Time { return event.Time(sec * float64(time.Second)) }

func o(reader, object string, sec float64) event.Observation {
	return event.Observation{Reader: reader, Object: object, At: ts(sec)}
}

// chunk splits obs into batches of n; the residue rides in a short last
// batch.
func chunk(obs []event.Observation, n int) [][]event.Observation {
	var batches [][]event.Observation
	for len(obs) > 0 {
		k := min(n, len(obs))
		batches = append(batches, obs[:k])
		obs = obs[k:]
	}
	return batches
}

// collect is a sink appending every observation it receives to dst.
func collect(dst *[]event.Observation) func(event.Batch) error {
	return func(b event.Batch) error {
		*dst = append(*dst, b...)
		return nil
	}
}

// reorder is a bounded out-of-order buffering stage over stream.Reorder.
func reorder(slack time.Duration) StageFunc {
	return func(out func(event.Observation) error) Stage {
		return stream.NewReorder(slack, out)
	}
}

// chanSource emits each observation received on ch as a batch of one;
// the stream ends when ch closes.
func chanSource(ch <-chan event.Observation) BatchSource {
	return func(ctx context.Context, emit func(event.Batch) error) error {
		for {
			select {
			case ob, ok := <-ch:
				if !ok {
					return nil
				}
				if err := emit(append(event.GetBatch(), ob)); err != nil {
					return err
				}
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
}

func TestPipelinePlain(t *testing.T) {
	var got []event.Observation
	err := RunBatches(context.Background(), BatchedConfig{
		Source: BatchSliceSource([][]event.Observation{{o("r", "a", 1), o("r", "b", 2)}}),
		Sink:   collect(&got),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Object != "a" {
		t.Fatalf("sink got: %v", got)
	}
}

func TestPipelineStagesCompose(t *testing.T) {
	// Out-of-order source with duplicates → reorder → Dedup → sink.
	src := []event.Observation{
		o("r", "x", 1.0),
		o("r", "y", 3.0),
		o("r", "x", 1.2), // duplicate of x@1.0 (within 1s), late
		o("r", "z", 4.0),
	}
	var got []event.Observation
	err := RunBatches(context.Background(), BatchedConfig{
		Source: BatchSliceSource(chunk(src, 1)),
		Stages: []StageFunc{reorder(5 * time.Second), Dedup(time.Second)},
		Sink:   collect(&got),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("expected dedup to drop one: %v", got)
	}
	if !event.Batch(got).Sorted() {
		t.Fatalf("reorder failed: %v", got)
	}
}

func TestPipelineFeedsEngine(t *testing.T) {
	// Full concurrent path into RCEDA, checked against the simulator's
	// ground truth.
	cfg := sim.DefaultConfig()
	cfg.DupProb = 0.2
	sc := sim.Generate(cfg)

	b := graph.NewBuilder()
	expr := &event.TSeq{
		L: &event.TSeqPlus{X: &event.Prim{
			Reader: event.Term{Lit: "pack_item_L1"},
			Object: event.Term{Var: "o1"},
			At:     event.Term{Var: "t1"},
		}, Lo: 100 * time.Millisecond, Hi: time.Second},
		R: &event.Prim{
			Reader: event.Term{Lit: "pack_case_L1"},
			Object: event.Term{Var: "o2"},
			At:     event.Term{Var: "t2"},
		},
		Lo: 10 * time.Second, Hi: 20 * time.Second,
	}
	if _, err := b.AddRule(1, expr); err != nil {
		t.Fatal(err)
	}
	var detections int
	eng, err := detect.New(detect.Config{
		Graph:    b.Finalize(),
		OnDetect: func(int, *event.Instance) { detections++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	err = RunBatches(context.Background(), BatchedConfig{
		Source: BatchSliceSource(chunk(sc.Observations, 16)),
		Stages: []StageFunc{Dedup(time.Second)},
		Sink:   func(b event.Batch) error { return eng.IngestBatch(b) },
		Buffer: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if detections != cfg.CasesPerLine {
		t.Fatalf("line-1 containments: %d, want %d", detections, cfg.CasesPerLine)
	}
}

func TestPipelineSinkErrorPropagates(t *testing.T) {
	boom := fmt.Errorf("sink boom")
	err := RunBatches(context.Background(), BatchedConfig{
		Source: BatchSliceSource([][]event.Observation{{o("r", "a", 1)}, {o("r", "b", 2)}}),
		Sink:   func(event.Batch) error { return boom },
	})
	if err == nil || !strings.Contains(err.Error(), "sink boom") {
		t.Fatalf("sink error lost: %v", err)
	}
}

// holdAll is a reorder stage whose slack spans the whole stream, so it
// releases nothing until Flush. It closes full once it holds n
// observations.
type holdAll struct {
	*stream.Reorder
	n    int
	full chan struct{}
}

func (h *holdAll) Push(o event.Observation) error {
	if h.n--; h.n == 0 {
		close(h.full)
	}
	return h.Reorder.Push(o)
}

// TestPipelineSourceErrorPropagates: a source that emits several batches
// and then fails gets its error back from RunBatches, but only after
// every observation it emitted has reached the sink. The stage holds
// every observation until its Flush, so the sink sees anything only if
// the failure drains the stages instead of cancelling them. The held leg
// fails only once the stage holds every observation; the in-flight leg
// fails at once, with batches still in the channels.
func TestPipelineSourceErrorPropagates(t *testing.T) {
	boom := errors.New("source boom")
	var emitted []event.Observation
	for i := 0; i < 5; i++ {
		for _, dt := range []float64{0.3, 0.1, 0.4, 0.2} { // out of order within each batch
			emitted = append(emitted, o("r", fmt.Sprintf("x%d", len(emitted)), float64(i)+dt))
		}
	}
	want := append([]event.Observation(nil), emitted...)
	sort.Slice(want, func(i, j int) bool { return want[i].At < want[j].At })

	for _, held := range []bool{true, false} {
		full := make(chan struct{})
		var got []event.Observation
		err := RunBatches(context.Background(), BatchedConfig{
			Source: func(ctx context.Context, emit func(event.Batch) error) error {
				for _, b := range chunk(emitted, 4) {
					if err := emit(append(event.GetBatch(), b...)); err != nil {
						return err
					}
				}
				if held {
					<-full
				}
				return boom
			},
			Stages: []StageFunc{func(out func(event.Observation) error) Stage {
				return &holdAll{stream.NewReorder(time.Hour, out), len(emitted), full}
			}},
			Sink: collect(&got),
		})
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "pipeline: source: source boom") {
			t.Fatalf("held=%t: source error lost: %v", held, err)
		}
		if len(got) != len(want) {
			t.Fatalf("held=%t: sink got %d of %d emitted observations before the source error returned", held, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("held=%t: observation %d = %v, want %v", held, i, got[i], want[i])
			}
		}
	}
}

func TestPipelineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	ch := make(chan event.Observation)
	go func() {
		done <- RunBatches(ctx, BatchedConfig{
			Source: chanSource(ch),
			Sink:   func(event.Batch) error { return nil },
		})
	}()
	ch <- o("r", "a", 1)
	cancel()
	select {
	case err := <-done:
		// Cancellation may or may not surface as an error depending on
		// where it lands; it must return promptly either way.
		_ = err
	case <-time.After(5 * time.Second):
		t.Fatalf("pipeline did not stop on cancellation")
	}
}

// TestPipelineCancelAndFailingSinkUnderRace hammers RunBatches with
// mid-stream cancellation racing a failing sink (run with -race): the
// first error must win, RunBatches must return promptly, and no
// goroutines may leak.
func TestPipelineCancelAndFailingSinkUnderRace(t *testing.T) {
	base := runtime.NumGoroutine()
	sinkBoom := errors.New("sink boom")
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		// An endless source: only cancellation or the sink failure can
		// end the run.
		src := func(ctx context.Context, emit func(event.Batch) error) error {
			for t := 0; ; t++ {
				if err := emit(append(event.GetBatch(), o("r", fmt.Sprintf("x%d", t), float64(t)))); err != nil {
					return err
				}
			}
		}
		failAt := i % 7 // vary where the sink dies relative to the cancel
		var seen atomic.Int64
		done := make(chan error, 1)
		go func() {
			done <- RunBatches(ctx, BatchedConfig{
				Source: src,
				Stages: []StageFunc{Dedup(time.Second)},
				Sink: func(b event.Batch) error {
					if int(seen.Add(int64(len(b)))) > failAt*10 {
						return sinkBoom
					}
					return nil
				},
				Buffer: 4,
			})
		}()
		if i%2 == 0 {
			cancel()
		}
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("iteration %d: endless pipeline returned nil", i)
			}
			// Exactly one of the two racing errors wins; nothing else.
			if !errors.Is(err, sinkBoom) && !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: unexpected winner: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: pipeline hung", i)
		}
		cancel()
	}
	// Every goroutine the 50 runs spawned must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d -> %d\n%s", base, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPipelineFirstErrorWins: when the sink fails, the cascade of
// secondary cancellation errors upstream must not mask it.
func TestPipelineFirstErrorWins(t *testing.T) {
	sinkBoom := errors.New("sink boom")
	srcBoom := errors.New("source boom")
	err := RunBatches(context.Background(), BatchedConfig{
		Source: func(ctx context.Context, emit func(event.Batch) error) error {
			for i := 0; i < 1000; i++ {
				if err := emit(append(event.GetBatch(), o("r", fmt.Sprintf("x%d", i), float64(i)))); err != nil {
					return err // cancellation from the sink failure
				}
			}
			return srcBoom
		},
		Sink:   func(event.Batch) error { return sinkBoom },
		Buffer: 1,
	})
	if !errors.Is(err, sinkBoom) {
		t.Fatalf("sink error masked: %v", err)
	}
	if errors.Is(err, srcBoom) {
		t.Fatalf("late source error won: %v", err)
	}
}

func TestPipelineExternalCancelSurfaces(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan event.Observation)
	done := make(chan error, 1)
	go func() {
		done <- RunBatches(ctx, BatchedConfig{
			Source: chanSource(ch),
			Sink:   func(event.Batch) error { return nil },
		})
	}()
	ch <- o("r", "a", 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("external cancellation reported %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pipeline did not stop on cancellation")
	}
}

func TestPipelineRequiresSourceAndSink(t *testing.T) {
	if err := RunBatches(context.Background(), BatchedConfig{}); err == nil {
		t.Fatalf("empty config accepted")
	}
}
