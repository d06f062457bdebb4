package detect

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// checkpointRules exercises every serialized structure: Seq buffers,
// negation history with windows, an open TSEQ+ run, and pending pseudo
// events.
func checkpointRules() map[int]event.Expr {
	return map[int]event.Expr{
		1: &event.TSeq{
			L:  &event.TSeqPlus{X: prim("r1", "o1", "t1"), Lo: 0, Hi: time.Second},
			R:  prim("r2", "o2", "t2"),
			Lo: 5 * time.Second, Hi: 10 * time.Second,
		},
		2: &event.Within{
			X:   &event.And{L: prim("r3", "a", "ta"), R: &event.Not{X: prim("r4", "b", "tb")}},
			Max: 10 * time.Second,
		},
		3: &event.Within{
			X:   &event.Seq{L: primVars("r", "o", "u1"), R: primVars("r", "o", "u2")},
			Max: 5 * time.Second,
		},
	}
}

func buildCkEngine(t *testing.T, sink *[]detection) *Engine {
	t.Helper()
	b := graph.NewBuilder()
	rules := checkpointRules()
	ids := make([]int, 0, len(rules))
	for id := range rules {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if _, err := b.AddRule(id, rules[id]); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := New(Config{
		Graph: b.Finalize(),
		OnDetect: func(rid int, inst *event.Instance) {
			*sink = append(*sink, detection{rid, inst})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// history splits mid-flight: an open TSEQ+ run, a pending AND-NOT window,
// and a buffered Seq initiator all survive the restart.
func ckFirstHalf() []event.Observation {
	return []event.Observation{
		obs("r1", "i1", 1), obs("r1", "i2", 1.5), // open TSEQ+ run
		obs("r3", "x", 2),     // AND-NOT pending, pseudo at 12
		obs("rQ", "dup", 3),   // Seq initiator waiting (rule 3)
		obs("r4", "bad", 3.5), // negation history entry
	}
}

func ckSecondHalf() []event.Observation {
	return []event.Observation{
		obs("r1", "i3", 4),   // gap 2.5s > 1s: starts a new run; the old one closes lazily
		obs("rQ", "dup", 6),  // pairs with the buffered initiator
		obs("r2", "case", 8), // terminates the first TSEQ+ run (dist 6.5s)
		obs("r3", "y", 20),   // clean AND-NOT window: fires at 30 on Close
	}
}

func sigOf(ds []detection) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.inst.Binds.String()+d.inst.Begin.String()+d.inst.End.String())
	}
	return out
}

func TestCheckpointResumesIdentically(t *testing.T) {
	// Reference: one engine, no restart.
	var refSights []detection
	ref := buildCkEngine(t, &refSights)
	for _, o := range ckFirstHalf() {
		if err := ref.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range ckSecondHalf() {
		if err := ref.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	ref.Close()

	// Checkpointed: save after the first half, restore into a fresh
	// engine, replay the second half.
	var aSights []detection
	a := buildCkEngine(t, &aSights)
	for _, o := range ckFirstHalf() {
		if err := a.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := a.SaveCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}

	var bSights []detection
	bEng := buildCkEngine(t, &bSights)
	if err := bEng.RestoreCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	for _, o := range ckSecondHalf() {
		if err := bEng.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	bEng.Close()

	combined := append(sigOf(aSights), sigOf(bSights)...)
	if !reflect.DeepEqual(combined, sigOf(refSights)) {
		t.Fatalf("resumed run diverges:\nresumed: %v\nref:     %v", combined, sigOf(refSights))
	}
	if len(refSights) == 0 {
		t.Fatalf("scenario produced no detections; test is vacuous")
	}
	// The pending AND-NOT pseudo event survived and fired on Close —
	// confirm rule 2 detected despite the restart.
	rules := map[int]bool{}
	for _, d := range bSights {
		rules[d.rule] = true
	}
	if !rules[2] {
		t.Errorf("AND-NOT detection lost across the restart: %v", bSights)
	}
}

func TestCheckpointFingerprintMismatch(t *testing.T) {
	var sights []detection
	a := buildCkEngine(t, &sights)
	var snap bytes.Buffer
	if err := a.SaveCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	// Different rules → different fingerprint → refuse.
	b := graph.NewBuilder()
	if _, err := b.AddRule(1, prim("rX", "o", "t")); err != nil {
		t.Fatal(err)
	}
	other, err := New(Config{Graph: b.Finalize()})
	if err != nil {
		t.Fatal(err)
	}
	err = other.RestoreCheckpoint(&snap)
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched graph accepted: %v", err)
	}
}

func TestCheckpointRequiresFreshEngine(t *testing.T) {
	var sights []detection
	a := buildCkEngine(t, &sights)
	_ = a.Ingest(obs("r1", "i1", 1))
	var snap bytes.Buffer
	if err := a.SaveCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreCheckpoint(&snap); err == nil {
		t.Fatalf("restore onto a used engine accepted")
	}
}

func TestCheckpointGarbage(t *testing.T) {
	var sights []detection
	a := buildCkEngine(t, &sights)
	if err := a.RestoreCheckpoint(strings.NewReader("not json")); err == nil {
		t.Fatalf("garbage checkpoint accepted")
	}
}

func TestCheckpointEmptyEngine(t *testing.T) {
	// A fresh engine round-trips to a fresh engine.
	var s1, s2 []detection
	a := buildCkEngine(t, &s1)
	var snap bytes.Buffer
	if err := a.SaveCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	b := buildCkEngine(t, &s2)
	if err := b.RestoreCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest(obs("r1", "i1", 1)); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointBytesDeterministic: a history's claimed entries are a set,
// but a checkpoint lists them in entry order, so saving one engine twice
// writes the same bytes, and a restored engine saves them again.
func TestCheckpointBytesDeterministic(t *testing.T) {
	// Two rules share SEQ+(r1) (common sub-graph merging): each consumer
	// claims every r1 entry of its window from the one history.
	rules := map[int]event.Expr{
		1: &event.Within{
			X:   &event.Seq{L: &event.SeqPlus{X: prim("r1", "o1", "t1")}, R: prim("r2", "o2", "t2")},
			Max: 10 * time.Second,
		},
		2: &event.Within{
			X:   &event.Seq{L: &event.SeqPlus{X: prim("r1", "o1", "t1")}, R: prim("r3", "o3", "t3")},
			Max: 10 * time.Second,
		},
	}
	h := newHarness(t, rules, nil)
	h.feed(
		obs("r1", "a", 1), obs("r1", "b", 2), obs("r1", "c", 3), obs("r1", "d", 4),
		obs("r1", "e", 5), obs("r1", "f", 6), obs("r2", "case", 7), obs("r3", "pallet", 8),
	)
	consumers := 0
	for _, st := range h.eng.states {
		if st == nil || st.hist == nil {
			continue
		}
		for consumer, set := range st.hist.consumed {
			if len(set) < 2 {
				t.Fatalf("consumer %d claimed %d entries, want at least 2", consumer, len(set))
			}
			consumers++
		}
	}
	if consumers < 2 {
		t.Fatalf("%d consumers claimed entries, want 2", consumers)
	}
	var first bytes.Buffer
	if err := h.eng.SaveCheckpoint(&first); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		var again bytes.Buffer
		if err := h.eng.SaveCheckpoint(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), first.Bytes()) {
			t.Fatalf("save %d differs:\n%s\nfirst:\n%s", i, again.Bytes(), first.Bytes())
		}
	}
	restored := newHarness(t, rules, nil)
	if err := restored.eng.RestoreCheckpoint(bytes.NewReader(first.Bytes())); err != nil {
		t.Fatal(err)
	}
	var round bytes.Buffer
	if err := restored.eng.SaveCheckpoint(&round); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(round.Bytes(), first.Bytes()) {
		t.Fatalf("restored engine saves other bytes:\n%s\nwant:\n%s", round.Bytes(), first.Bytes())
	}
}
