package shard

import (
	"bytes"
	"testing"
	"time"

	"rcep/internal/core/event"
)

// newTestHost hosts the one-shard partition of a rule that fires on every
// r0 observation.
func newTestHost(t *testing.T) *Host {
	t.Helper()
	part := NewPartition([]Rule{{ID: 1, Expr: lit("r0", "o", "t")}}, 1, genGroups)
	h, err := NewHost(part, 0, Config{Groups: genGroups, TypeOf: genTypeOf})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	return h
}

func pendingSeqs(h *Host) []uint64 {
	var out []uint64
	for _, d := range h.Pending() {
		out = append(out, d.Seq)
	}
	return out
}

// TestHostConfirmAndFreshLineage pins the host's unconfirmed list: a
// restored lineage numbers past its base, confirm trims cumulatively, a
// stale mark is a no-op, and a fresh host starts a fresh lineage.
func TestHostConfirmAndFreshLineage(t *testing.T) {
	var ck bytes.Buffer
	if err := newTestHost(t).Save(&ck); err != nil {
		t.Fatalf("Save: %v", err)
	}
	h := newTestHost(t)
	if err := h.Restore(ck.Bytes(), 5); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for i, o := range []string{"a", "b", "c"} {
		if err := h.Ingest(event.Batch{{Reader: "r0", Object: o, At: event.Time(i) * event.Time(time.Second)}}); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if p := pendingSeqs(h); len(p) != 3 || p[0] != 6 || p[2] != 8 {
		t.Fatalf("pending = %v, want [6 7 8]", p)
	}
	if d := h.Pending()[2]; d.Fire != event.Time(2*time.Second) || d.Rule != 1 {
		t.Fatalf("detection 8 fired at %s for rule %d, want 2s and rule 1", d.Fire, d.Rule)
	}
	h.Confirm(7)
	if p := pendingSeqs(h); len(p) != 1 || p[0] != 8 {
		t.Fatalf("pending after Confirm(7) = %v, want [8]", p)
	}
	h.Confirm(6) // stale replayed mark: cumulative, must be a no-op
	if p := pendingSeqs(h); len(p) != 1 || p[0] != 8 {
		t.Fatalf("pending after stale Confirm(6) = %v, want [8]", p)
	}

	// A fresh host starts a fresh lineage: nothing of the previous
	// incarnation is held.
	h2 := newTestHost(t)
	if p := pendingSeqs(h2); len(p) != 0 {
		t.Fatalf("fresh host pending = %v, want empty", p)
	}
	if err := h2.Ingest(event.Batch{{Reader: "r0", Object: "a", At: 0}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	h2.Confirm(1)
	if p := pendingSeqs(h2); len(p) != 0 {
		t.Fatalf("pending after Confirm(1) = %v, want empty", p)
	}
}

// TestHostAdvanceClockRule: an advance to the host's own instant fires the
// pseudo events due there, an earlier one is stale and skipped, and a
// catch-up to the same instant leaves them pending.
func TestHostAdvanceClockRule(t *testing.T) {
	part := NewPartition([]Rule{{ID: 1, Expr: &event.Within{
		X:   &event.And{L: lit("r1", "o", "t1"), R: &event.Not{X: lit("r2", "o", "t2")}},
		Max: 5 * time.Second,
	}}}, 1, nil)
	h, err := NewHost(part, 0, Config{})
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	at5 := event.Time(5 * time.Second)
	for _, b := range []event.Batch{{{Reader: "r1", Object: "o1", At: 0}}, {{Reader: "r2", Object: "x", At: at5}}} {
		if err := h.Ingest(b); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if err := h.Advance(at5, true); err != nil || len(h.Pending()) != 0 {
		t.Fatalf("catch-up to 5s: err %v, %d detections, want none", err, len(h.Pending()))
	}
	if err := h.Advance(event.Time(time.Second), false); err != nil || len(h.Pending()) != 0 {
		t.Fatalf("stale advance to 1s: err %v, %d detections, want a no-op", err, len(h.Pending()))
	}
	if err := h.Advance(at5, false); err != nil || len(h.Pending()) != 1 {
		t.Fatalf("advance to 5s at 5s: err %v, %d detections, want 1", err, len(h.Pending()))
	}
}
