package main

import (
	"math/rand"
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/sim"
)

type det struct {
	rule       int
	begin, end int64
}

// smallStream is a quick stream with every rule family firing.
func smallStream(t *testing.T, seed int64) (*inputs, []det) {
	t.Helper()
	in, err := genStream(seed, streamSpec{lines: 4, obs: 1500, families: sim.AllFamilies()})
	if err != nil {
		t.Fatal(err)
	}
	var dets []det
	eng, err := bareEngine(in, func(rule int, inst *event.Instance) {
		dets = append(dets, det{rule, int64(inst.Begin), int64(inst.End)})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range in.obs {
		if err := eng.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.AdvanceTo(in.horizon); err != nil {
		t.Fatal(err)
	}
	if len(dets) < 100 {
		t.Fatalf("only %d detections; the stream is too small to test the oracle", len(dets))
	}
	return in, dets
}

func foldAll(dets []det) digest {
	var d digest
	for _, x := range dets {
		d.fold(x.rule, x.begin, x.end)
	}
	return d
}

// TestOracleCatchesCorruption: a dropped, a duplicated and an altered
// detection each change the digest; a reordered stream does not.
func TestOracleCatchesCorruption(t *testing.T) {
	in, dets := smallStream(t, 1)
	ref, _, err := reference(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := foldAll(dets); got.diff(ref) != 0 {
		t.Fatalf("same stream folds to %s, reference is %s", got, ref)
	}

	shuffled := append([]det(nil), dets...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := foldAll(shuffled); got.diff(ref) != 0 {
		t.Errorf("reordered stream folds to %s, want %s: the digest must ignore order", got, ref)
	}

	mid := len(dets) / 2
	dropped := append(append([]det(nil), dets[:mid]...), dets[mid+1:]...)
	duplicated := append(append([]det(nil), dets...), dets[mid])
	alter := func(change func(*det)) []det {
		out := append([]det(nil), dets...)
		change(&out[mid])
		return out
	}
	for name, stream := range map[string][]det{
		"dropped":       dropped,
		"duplicated":    duplicated,
		"altered end":   alter(func(d *det) { d.end++ }),
		"altered begin": alter(func(d *det) { d.begin-- }),
		"altered rule":  alter(func(d *det) { d.rule++ }),
		// Two changes that cancel under XOR must not cancel here.
		"duplicated twice": append(append([]det(nil), dets...), dets[mid], dets[mid]),
	} {
		if got := foldAll(stream); got.diff(ref) == 0 {
			t.Errorf("%s stream passes the oracle (%s)", name, got)
		}
	}
}

// TestCorruptedStreamFailsTheRun: the pass itself, not just the digest
// type, counts a mismatch as failed operations.
func TestCorruptedStreamFailsTheRun(t *testing.T) {
	r, err := setupDetectOnly(1, streamSpec{lines: 4, obs: 1500, families: sim.AllFamilies()})
	if err != nil {
		t.Fatal(err)
	}
	w := r.(*detectOnly)
	if p, err := w.pass(nil); err != nil || p.failed != 0 {
		t.Fatalf("clean pass: failed=%d err=%v", p.failed, err)
	}
	w.ref.sum++ // the reference now describes another stream
	p, err := w.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.failed == 0 {
		t.Errorf("pass against a different reference reports no failure")
	}
}
