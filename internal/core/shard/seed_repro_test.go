package shard

import (
	"math/rand"
	"sort"
	"testing"

	"rcep/internal/core/event"
)

// TestSeedRepro60402385808921546 pins the invariants around equal-time
// reordering for a seed that historically exposed a divergence.
//
// What the engine guarantees: the sharded engine reproduces a single
// engine's detections exactly when both consume the SAME observation
// order. What it deliberately does NOT guarantee: detection-multiset
// invariance under permutations of equal-timestamp observations in the
// input itself — chronicle context consumes the oldest compatible
// candidate, and for constituents with no join variables "oldest" among
// equal-time arrivals is arrival order by definition (for this seed, two
// initiators at 6.644s re-pair a TSEQ terminator differently). The first
// part of this test therefore asserts equality only up to chronicle
// re-pairing: the multiset of (rule, interval) detections must agree even
// when equal-time permutation swaps which initiator's bindings were
// consumed.
func TestSeedRepro60402385808921546(t *testing.T) {
	seed := int64(60402385808921546)
	r := rand.New(rand.NewSource(seed))
	rules := genRules(r, 3+r.Intn(8))
	stream := genStream(r, 60+r.Intn(60))
	oracle := runSingle(t, rules, stream)

	// Recreate the exact per-chunk shuffled+stably-sorted order IngestBatch applies.
	var applied []event.Observation
	rest := stream
	for len(rest) > 0 {
		n := 1 + r.Intn(10)
		if n > len(rest) {
			n = len(rest)
		}
		chunk := append([]event.Observation(nil), rest[:n]...)
		r.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
		sorted := append([]event.Observation(nil), chunk...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
		applied = append(applied, sorted...)
		rest = rest[n:]
	}
	reordered := runSingle(t, rules, applied)
	diffStrings(t, "single-engine intervals on reordered equal-time stream",
		asMultiset(stripBinds(oracle)), asMultiset(stripBinds(reordered)))

	// The sharded engine on the same applied order via plain Ingest must
	// match the single engine exactly, bindings included.
	var got []string
	eng, err := New(Config{
		Rules: rules, Shards: 4, Groups: genGroups, TypeOf: genTypeOf,
		OnDetect: func(rid int, inst *event.Instance) { got = append(got, sig(rid, inst)) },
		Batch:    2, SyncEvery: 5,
	})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	for _, o := range applied {
		if err := eng.Ingest(o); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	eng.Close()
	diffStrings(t, "shard vs single on SAME order", asMultiset(reordered), asMultiset(got))
}

// stripBinds reduces detection signatures "rule|begin|end|binds" to
// "rule|begin|end", the part invariant to chronicle re-pairing.
func stripBinds(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		cut := len(s)
		for j, seen := 0, 0; j < len(s); j++ {
			if s[j] == '|' {
				seen++
				if seen == 3 {
					cut = j
					break
				}
			}
		}
		out[i] = s[:cut]
	}
	return out
}
