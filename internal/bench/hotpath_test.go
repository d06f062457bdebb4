package bench

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/core/shard"
	"rcep/internal/rules"
)

// hotpathWorkload scales the supply-chain workload to the runner: 20k
// events over the 400-rule Fig. 9b rule set; under -short (CI's -race
// leg) it shrinks but keeps every rule family in play.
func hotpathWorkload(t *testing.T) *Workload {
	t.Helper()
	events, nrules := 20000, 400
	if testing.Short() {
		events, nrules = 4000, 60
	}
	return Fig9Workload(events, nrules, 9, false)
}

// detSig renders one detection in (rule, interval, bindings, seq) form —
// the byte-identical unit of the equivalence suite.
func detSig(rid int, inst *event.Instance) string {
	return fmt.Sprintf("%d|%d|%d|%s|%d", rid, inst.Begin, inst.End, inst.Binds.String(), inst.Seq)
}

// captureStream replays the workload and returns every detection
// signature in delivery order. checkpointAt > 0 additionally saves a
// shard/v1 (or single-engine) checkpoint after that many observations,
// abandons the first engine, restores into a fresh one and finishes the
// stream there — detections before and after the cut concatenate.
func captureStream(t *testing.T, w *Workload, shards int, checkpointAt int) []string {
	t.Helper()
	rs, err := w.parseRules()
	if err != nil {
		t.Fatal(err)
	}
	var stream []string
	var capture = true
	onDetect := func(rid int, inst *event.Instance) {
		if capture {
			stream = append(stream, detSig(rid, inst))
		}
	}

	type engine interface {
		Ingest(event.Observation) error
		Close()
		SaveCheckpoint(w *bytes.Buffer) error
		RestoreCheckpoint(r *bytes.Buffer) error
	}
	newEngine := func() engine {
		if shards <= 1 {
			b := graph.NewBuilder()
			x := rules.NewExecutor(rs, nil, nil, nil)
			if err := x.Bind(b); err != nil {
				t.Fatal(err)
			}
			eng, err := detect.New(detect.Config{
				Graph:    b.Finalize(),
				Groups:   w.Groups,
				TypeOf:   w.TypeOf,
				OnDetect: onDetect,
			})
			if err != nil {
				t.Fatal(err)
			}
			return singleAdapter{eng}
		}
		shRules := make([]shard.Rule, len(rs.Rules))
		for i, r := range rs.Rules {
			shRules[i] = shard.Rule{ID: i, Expr: r.Event}
		}
		eng, err := shard.New(shard.Config{
			Rules:    shRules,
			Shards:   shards,
			Groups:   w.Groups,
			TypeOf:   w.TypeOf,
			OnDetect: onDetect,
		})
		if err != nil {
			t.Fatal(err)
		}
		return shardAdapter{t, eng}
	}

	eng := newEngine()
	obs := w.Observations
	if checkpointAt > 0 && checkpointAt < len(obs) {
		for _, o := range obs[:checkpointAt] {
			if err := eng.Ingest(o); err != nil {
				t.Fatal(err)
			}
		}
		var ck bytes.Buffer
		if err := eng.SaveCheckpoint(&ck); err != nil {
			t.Fatalf("SaveCheckpoint: %v", err)
		}
		// Abandon the first engine without draining its windows: Close
		// would fire detections the restored engine will deliver again.
		capture = false
		eng.Close()
		capture = true
		eng = newEngine()
		if err := eng.RestoreCheckpoint(&ck); err != nil {
			t.Fatalf("RestoreCheckpoint: %v", err)
		}
		obs = obs[checkpointAt:]
	}
	for _, o := range obs {
		if err := eng.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	return stream
}

type singleAdapter struct{ eng *detect.Engine }

func (a singleAdapter) Ingest(o event.Observation) error        { return a.eng.Ingest(o) }
func (a singleAdapter) Close()                                  { a.eng.Close() }
func (a singleAdapter) SaveCheckpoint(w *bytes.Buffer) error    { return a.eng.SaveCheckpoint(w) }
func (a singleAdapter) RestoreCheckpoint(r *bytes.Buffer) error { return a.eng.RestoreCheckpoint(r) }

type shardAdapter struct {
	t   *testing.T
	eng *shard.Engine
}

func (a shardAdapter) Ingest(o event.Observation) error { return a.eng.Ingest(o) }
func (a shardAdapter) Close() {
	a.eng.Close()
	if err := a.eng.Err(); err != nil {
		a.t.Fatalf("shard engine: %v", err)
	}
}
func (a shardAdapter) SaveCheckpoint(w *bytes.Buffer) error    { return a.eng.SaveCheckpoint(w) }
func (a shardAdapter) RestoreCheckpoint(r *bytes.Buffer) error { return a.eng.RestoreCheckpoint(r) }

func diffStreams(t *testing.T, label string, want, got []string) {
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
			t.Errorf("%s: detection %d = %q, oracle %q", label, i, got[i], want[i])
			return
		}
	}
}

// withoutSeq drops detSig's trailing Seq field: each shard numbers its
// own instances, so Seq is comparable only at one width.
func withoutSeq(sigs []string) []string {
	out := make([]string, len(sigs))
	for i, s := range sigs {
		out[i] = s[:strings.LastIndexByte(s, '|')]
	}
	return out
}

// asMultiset returns a sorted copy for order-insensitive comparison.
func asMultiset(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}

// bareStream is the suite's reference: the workload through one bare
// detect.Engine, uninterrupted.
func bareStream(t *testing.T, w *Workload) []string {
	t.Helper()
	ref := captureStream(t, w, 1, 0)
	if len(ref) == 0 {
		t.Fatal("the bare engine produced no detections; workload is vacuous")
	}
	return ref
}

// TestHotpathEquivalence is the metamorphic core of the suite: on the
// bench workload (every rule family, negation included), the engine at
// every shard width must deliver the bare engine's detections — same
// intervals, same bindings, same multiplicities.
func TestHotpathEquivalence(t *testing.T) {
	w := hotpathWorkload(t)
	ref := asMultiset(withoutSeq(bareStream(t, w)))
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			got := captureStream(t, w, shards, 0)
			diffStreams(t, "multiset vs bare engine", ref, asMultiset(withoutSeq(got)))
		})
	}
}

// TestHotpathEquivalenceAcrossCheckpoint adds the persistence leg: the
// engine checkpoints mid-stream (single-engine and shard/v1 formats),
// restores into a fresh engine — whose plans and intern table are
// rebuilt from scratch, never serialized — and must reproduce its width's
// uninterrupted stream byte for byte, order and sequence numbers included
// (checkpoints preserve the counters), whose multiset is the bare
// engine's.
func TestHotpathEquivalenceAcrossCheckpoint(t *testing.T) {
	w := hotpathWorkload(t)
	ref := asMultiset(withoutSeq(bareStream(t, w)))
	cut := len(w.Observations) / 2
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			whole := captureStream(t, w, shards, 0)
			diffStreams(t, "multiset vs bare engine", ref, asMultiset(withoutSeq(whole)))
			got := captureStream(t, w, shards, cut)
			diffStreams(t, "checkpointed vs uninterrupted", whole, got)
		})
	}
}
