package event

import "testing"

// TestBatchPoolRoundAllocatesNothing: a GetBatch/PutBatch round reuses
// the pooled array and its box, so steady-state batching allocates
// nothing.
func TestBatchPoolRoundAllocatesNothing(t *testing.T) {
	PutBatch(append(GetBatch(), Observation{Reader: "r1", Object: "o1"}))
	if n := testing.AllocsPerRun(1000, func() {
		b := append(GetBatch(), Observation{Reader: "r1", Object: "o1", At: 1})
		PutBatch(b)
	}); n != 0 {
		t.Fatalf("a Get/Put round allocates %v times, want 0", n)
	}
	if b := GetBatch(); len(b) != 0 || cap(b) == 0 {
		t.Fatalf("GetBatch returned len %d cap %d, want an empty pooled array", len(b), cap(b))
	}
}
