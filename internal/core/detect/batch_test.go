package detect

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rcep/internal/core/event"
)

func seqWithin(l, r event.Expr, max time.Duration) event.Expr {
	return &event.Within{X: &event.Seq{L: l, R: r}, Max: max}
}

// TestIngestBatchSortsInput: a batch may arrive in any internal order; the
// engine sorts it (stably) before feeding, so detections come out as if the
// observations had been ingested in timestamp order.
func TestIngestBatchSortsInput(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: seqWithin(prim("r1", "o", "t1"), prim("r2", "o", "t2"), 10*time.Second),
	}, nil)
	err := h.eng.IngestBatch([]event.Observation{
		obs("r2", "a", 3), // completes the sequence, but sorts after r1@1
		obs("r1", "a", 1),
	})
	if err != nil {
		t.Fatalf("IngestBatch: %v", err)
	}
	h.eng.Close()
	if len(h.sights) != 1 || h.sights[0].rule != 1 {
		t.Fatalf("detections = %v, want one rule-1 firing", h.sights)
	}
}

// TestIngestBatchAtomicOnStale pins the partial-failure contract: a batch
// whose earliest observation precedes engine time is rejected as a whole —
// no observation is applied, not even those individually newer than engine
// time. (Since the batch is fed in sorted order and Ingest can only fail on
// ordering, a mid-batch failure leaving an applied prefix is impossible.)
func TestIngestBatchAtomicOnStale(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: seqWithin(prim("r1", "o", "t1"), prim("r2", "o", "t2"), 10*time.Second),
	}, nil)
	h.feed(obs("r1", "a", 5))

	// r2@6 would complete rule 1 if the batch were applied prefix-wise.
	err := h.eng.IngestBatch([]event.Observation{obs("r2", "a", 6), obs("r1", "b", 2)})
	if !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("stale batch: err = %v, want ErrOutOfOrder", err)
	}
	if got := h.eng.Metrics().Observations; got != 1 {
		t.Fatalf("Observations = %d after rejected batch, want 1", got)
	}
	if h.eng.Now() != ts(5) {
		t.Fatalf("Now = %s after rejected batch, want 5s", h.eng.Now())
	}
	h.eng.Close()
	if len(h.sights) != 0 {
		t.Fatalf("rejected batch produced detections: %v", h.sights)
	}
}

// TestIngestBatchEquivalentToIngest pins "Ingest is IngestBatch of one" in
// both execution modes: however a stream is cut into IngestBatch calls —
// one call, two calls split at every point, or batches of one — the
// detections and the checkpoint taken after the last observation are
// exactly those of one-at-a-time Ingest.
func TestIngestBatchEquivalentToIngest(t *testing.T) {
	rules := map[int]event.Expr{
		1: seqWithin(prim("r1", "o", "t1"), prim("r2", "o", "t2"), 10*time.Second),
		2: seqWithin(prim("r2", "o", "t1"), prim("r3", "o", "t2"), 10*time.Second),
		// A negation window: its pseudo event is due between observations,
		// so the drain-before-the-observation half of the step is exercised.
		3: &event.Within{
			X:   &event.And{L: prim("r1", "p", "tp"), R: &event.Not{X: prim("r4", "q", "tq")}},
			Max: 2 * time.Second,
		},
	}
	stream := []event.Observation{
		obs("r1", "a", 1), obs("r2", "a", 2), obs("r3", "a", 3),
		obs("r1", "b", 3), obs("r2", "b", 4), obs("r4", "x", 4.5), obs("r3", "b", 9),
	}
	// run feeds the stream cut at the given indices and returns the
	// detections (after Close) and the pre-Close checkpoint.
	run := func(t *testing.T, interpreted, perObs bool, cuts ...int) ([]string, []byte) {
		t.Helper()
		h := newHarness(t, rules, func(c *Config) { c.Interpreted = interpreted })
		if perObs {
			h.feed(stream...)
		} else {
			lo := 0
			for _, hi := range append(cuts, len(stream)) {
				if err := h.eng.IngestBatch(stream[lo:hi]); err != nil {
					t.Fatalf("IngestBatch(%d:%d): %v", lo, hi, err)
				}
				lo = hi
			}
		}
		var ck bytes.Buffer
		if err := h.eng.SaveCheckpoint(&ck); err != nil {
			t.Fatalf("SaveCheckpoint: %v", err)
		}
		h.eng.Close()
		var sigs []string
		for _, d := range h.sights {
			sigs = append(sigs, fmt.Sprintf("%d %v #%d", d.rule, d.inst, d.inst.Seq))
		}
		return sigs, ck.Bytes()
	}
	for _, mode := range []struct {
		name        string
		interpreted bool
	}{{"compiled", false}, {"interpreted", true}} {
		t.Run(mode.name, func(t *testing.T) {
			want, wantCk := run(t, mode.interpreted, true)
			if len(want) < 3 {
				t.Fatalf("one-at-a-time run produced %d detections; workload is vacuous", len(want))
			}
			feeds := map[string][]int{"one call": nil}
			var ones []int
			for i := 1; i < len(stream); i++ {
				feeds[fmt.Sprintf("split at %d", i)] = []int{i}
				ones = append(ones, i)
			}
			feeds["batches of one"] = ones
			for name, cuts := range feeds {
				got, gotCk := run(t, mode.interpreted, false, cuts...)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: detections\n got %v\nwant %v", name, got, want)
				}
				if !bytes.Equal(gotCk, wantCk) {
					t.Errorf("%s: checkpoint differs from one-at-a-time ingest\n got %s\nwant %s", name, gotCk, wantCk)
				}
			}
		})
	}
}

func TestIngestBatchEmpty(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		1: seqWithin(prim("r1", "o", "t1"), prim("r2", "o", "t2"), 10*time.Second),
	}, nil)
	defer h.eng.Close()
	if err := h.eng.IngestBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}
