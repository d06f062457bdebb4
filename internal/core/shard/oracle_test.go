package shard

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// runSingle replays the stream through one plain detect.Engine holding the
// whole rule set — the oracle the sharded engine must reproduce.
func runSingle(t *testing.T, rules []Rule, stream []event.Observation) []string {
	t.Helper()
	b := graph.NewBuilder()
	for _, r := range rules {
		if _, err := b.AddRule(r.ID, r.Expr); err != nil {
			t.Fatalf("AddRule(%d): %v", r.ID, err)
		}
	}
	var got []string
	eng, err := detect.New(detect.Config{
		Graph:  b.Finalize(),
		Groups: genGroups,
		TypeOf: genTypeOf,
		OnDetect: func(rid int, inst *event.Instance) {
			got = append(got, sig(rid, inst))
		},
	})
	if err != nil {
		t.Fatalf("detect.New: %v", err)
	}
	for _, o := range stream {
		if err := eng.Ingest(o); err != nil {
			t.Fatalf("oracle Ingest(%v): %v", o, err)
		}
	}
	eng.Close()
	return got
}

// runShard replays the stream through a sharded engine, returning the
// delivered detection order.
func runShard(t *testing.T, rules []Rule, stream []event.Observation, shards int) []string {
	t.Helper()
	var got []string
	eng, err := New(Config{
		Rules:  rules,
		Shards: shards,
		Groups: genGroups,
		TypeOf: genTypeOf,
		OnDetect: func(rid int, inst *event.Instance) {
			got = append(got, sig(rid, inst))
		},
		Batch:     3, // tiny batches + frequent barriers to stress the
		SyncEvery: 7, // fan-out/fan-in machinery
	})
	if err != nil {
		t.Fatalf("shard.New(shards=%d): %v", shards, err)
	}
	for _, o := range stream {
		if err := eng.Ingest(o); err != nil {
			t.Fatalf("shard Ingest(%v): %v", o, err)
		}
	}
	eng.Close()
	if err := eng.Err(); err != nil {
		t.Fatalf("shard Err: %v", err)
	}
	return got
}

// asMultiset returns a sorted copy for order-insensitive comparison.
func asMultiset(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

func diffStrings(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d detections, oracle has %d", label, len(got), len(want))
	}
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Errorf("%s: detection %d = %s, oracle %s", label, i, got[i], want[i])
			return
		}
	}
}

// TestOracleShardEquivalence is the core acceptance property: for seeded
// random rule sets and streams, the sharded engine at N ∈ {1,2,4,8}
// delivers exactly the single engine's detection multiset, and the
// delivered sequence is invariant in N.
func TestOracleShardEquivalence(t *testing.T) {
	shardCounts := []int{1, 2, 4, 8}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rules := genRules(r, 3+r.Intn(10))
		stream := genStream(r, 40+r.Intn(110))

		oracle := asMultiset(runSingle(t, rules, stream))
		var ref []string
		for _, n := range shardCounts {
			got := runShard(t, rules, stream, n)
			diffStrings(t, "multiset", oracle, asMultiset(got))
			if ref == nil {
				ref = got
			} else {
				diffStrings(t, "sequence vs N=1", ref, got)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestOracleBatchedIngest checks that feeding shuffled, irregularly sized
// chunks through IngestBatch produces the same multiset as a single
// engine fed the realized serialization — each chunk stably sorted by
// timestamp, which is exactly the order IngestBatch commits. The oracle
// must consume that realized order, not the pre-shuffle stream: among
// equal-timestamp observations the original order is unrecoverable after
// a shuffle, and chronicle pairing is arrival-order-sensitive for
// simultaneous events, so the two orders can legitimately detect
// different (equally valid) initiator bindings.
func TestOracleBatchedIngest(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rules := genRules(r, 3+r.Intn(8))
		stream := genStream(r, 60+r.Intn(60))

		// Chunk and shuffle first, recording the realized serialization
		// the engine will actually commit.
		var chunks [][]event.Observation
		var realized []event.Observation
		for rest := stream; len(rest) > 0; {
			n := 1 + r.Intn(10)
			if n > len(rest) {
				n = len(rest)
			}
			chunk := append([]event.Observation(nil), rest[:n]...)
			r.Shuffle(len(chunk), func(i, j int) { chunk[i], chunk[j] = chunk[j], chunk[i] })
			chunks = append(chunks, chunk)
			sorted := append([]event.Observation(nil), chunk...)
			sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
			realized = append(realized, sorted...)
			rest = rest[n:]
		}
		oracle := asMultiset(runSingle(t, rules, realized))

		var got []string
		eng, err := New(Config{
			Rules:  rules,
			Shards: 4,
			Groups: genGroups,
			TypeOf: genTypeOf,
			OnDetect: func(rid int, inst *event.Instance) {
				got = append(got, sig(rid, inst))
			},
			Batch:     2,
			SyncEvery: 5,
		})
		if err != nil {
			t.Fatalf("shard.New: %v", err)
		}
		for _, chunk := range chunks {
			if err := eng.IngestBatch(chunk); err != nil {
				t.Fatalf("IngestBatch: %v", err)
			}
		}
		eng.Close()
		if err := eng.Err(); err != nil {
			t.Fatalf("Err: %v", err)
		}
		diffStrings(t, "batched multiset", oracle, asMultiset(got))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestOracleAdvanceTo interleaves explicit time advances (which fire
// pending pseudo events with no observation) with the stream and checks
// equivalence still holds.
func TestOracleAdvanceTo(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rules := genRules(r, 3+r.Intn(8))
		stream := genStream(r, 50+r.Intn(50))

		b := graph.NewBuilder()
		for _, rl := range rules {
			if _, err := b.AddRule(rl.ID, rl.Expr); err != nil {
				t.Fatalf("AddRule: %v", err)
			}
		}
		var oracle []string
		single, err := detect.New(detect.Config{
			Graph:  b.Finalize(),
			Groups: genGroups,
			TypeOf: genTypeOf,
			OnDetect: func(rid int, inst *event.Instance) {
				oracle = append(oracle, sig(rid, inst))
			},
		})
		if err != nil {
			t.Fatalf("detect.New: %v", err)
		}
		var got []string
		sharded, err := New(Config{
			Rules:  rules,
			Shards: 4,
			Groups: genGroups,
			TypeOf: genTypeOf,
			OnDetect: func(rid int, inst *event.Instance) {
				got = append(got, sig(rid, inst))
			},
			Batch:     3,
			SyncEvery: 6,
		})
		if err != nil {
			t.Fatalf("shard.New: %v", err)
		}
		for i, o := range stream {
			if err := single.Ingest(o); err != nil {
				t.Fatalf("oracle Ingest: %v", err)
			}
			if err := sharded.Ingest(o); err != nil {
				t.Fatalf("shard Ingest: %v", err)
			}
			if i%7 == 3 {
				adv := o.At + event.Time(r.Intn(3_000_000_000))
				if i+1 < len(stream) && adv > stream[i+1].At {
					adv = stream[i+1].At // keep the rest of the stream ingestible
				}
				if err := single.AdvanceTo(adv); err != nil {
					t.Fatalf("oracle AdvanceTo: %v", err)
				}
				if err := sharded.AdvanceTo(adv); err != nil {
					t.Fatalf("shard AdvanceTo: %v", err)
				}
			}
		}
		single.Close()
		sharded.Close()
		if err := sharded.Err(); err != nil {
			t.Fatalf("Err: %v", err)
		}
		diffStrings(t, "advance multiset", asMultiset(oracle), asMultiset(got))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
