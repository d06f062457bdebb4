package detect

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rcep/internal/core/event"
)

// TestSoakMemoryBounded feeds long streams through the paper's rule
// shapes and asserts that engine state stays bounded: chronicle
// consumption, constraint-based reclamation and retention pruning must
// keep buffers and histories from growing with stream length.
func TestSoakMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	t.Run("cycling-objects", soakCyclingObjects)
	t.Run("new-objects", soakNewObjects)
}

// soakCyclingObjects cycles a few dozen object names, so every join key
// keeps returning.
func soakCyclingObjects(t *testing.T) {
	// A never-pausing conveyor keeps the TSEQ+ run open forever; the cap
	// bounds it (the soak found this — see Config.MaxOpenSequence).
	h := newHarness(t, map[int]event.Expr{
		// Rule 1 shape: self-join with WITHIN.
		1: &event.Within{
			X:   &event.Seq{L: primVars("r", "o", "t1"), R: primVars("r", "o", "t2")},
			Max: 5 * time.Second,
		},
		// Rule 4 shape: TSEQ over TSEQ+.
		2: &event.TSeq{
			L:  &event.TSeqPlus{X: prim("rA", "o1", "t1"), Lo: 0, Hi: time.Second},
			R:  prim("rB", "o2", "t2"),
			Lo: 5 * time.Second, Hi: 10 * time.Second,
		},
		// Rule 5 shape: negation under WITHIN.
		3: &event.Within{
			X:   &event.And{L: prim("rC", "a", "ta"), R: &event.Not{X: prim("rD", "b", "tb")}},
			Max: 5 * time.Second,
		},
	}, func(c *Config) { c.MaxOpenSequence = 4096 })

	const n = 200_000
	for i := 0; i < n; i++ {
		at := float64(i) * 0.05 // 20 events/sec
		switch i % 10 {
		case 0, 1, 2:
			// Bursts for the TSEQ+ (same reader).
			h.feed(obs("rA", objName(i%7), at))
		case 3:
			h.feed(obs("rB", "case", at))
		case 4:
			h.feed(obs("rC", objName(i%5), at))
		case 5:
			h.feed(obs("rD", "super", at))
		default:
			h.feed(obs("r1", objName(i%50), at))
		}
	}
	nodes, pendingPseudo := h.eng.Snapshot()
	for _, nd := range nodes {
		if nd.LeftBuffer > 1000 || nd.RightBuffer > 1000 {
			t.Errorf("buffer grew with stream length: %+v", nd)
		}
		if nd.History > 2000 {
			t.Errorf("history grew with stream length: %+v", nd)
		}
		if nd.OpenSequence > 4096 {
			t.Errorf("open sequence exceeded its cap: %+v", nd)
		}
	}
	if pendingPseudo > 1000 {
		t.Errorf("pseudo queue grew with stream length: %d", pendingPseudo)
	}
	m := h.eng.Metrics()
	if m.Detections == 0 {
		t.Fatalf("soak produced no detections; scenario is vacuous")
	}
	// The never-pausing conveyor must have tripped the open-run cap.
	if m.Dropped == 0 {
		t.Errorf("expected the open-sequence cap to shed elements")
	}
}

// soakNewObjects reads every object once on the conveyor and once on the
// shelf: no join key ever returns, so only time-based reclamation and
// retention pruning can free a pending initiator, its partition, or a
// history key.
func soakNewObjects(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{
		// Rule 1 shape: the duplicate filter, joined on (o, r).
		1: &event.Within{
			X:   &event.Seq{L: primVars("r", "o", "t1"), R: primVars("r", "o", "t2")},
			Max: 5 * time.Second,
		},
		// Rule 2 shape: infield filtering, the negated child keyed on o.
		2: &event.Within{
			X:   &event.Seq{L: &event.Not{X: prim("shelf", "o", "t1")}, R: prim("shelf", "o", "t2")},
			Max: 45 * time.Second,
		},
	}, nil)
	const n = 200_000
	for i := 0; i < n; i++ {
		reader := "conveyor"
		if i%2 == 1 {
			reader = "shelf"
		}
		h.feed(obs(reader, fmt.Sprintf("epc-%d", i/2), float64(i)*0.05))
	}
	for _, n := range h.eng.g.Nodes {
		st := h.eng.states[n.ID]
		for _, b := range []*buffer{st.left, st.right} {
			if b == nil {
				continue
			}
			if b.len() > 1000 {
				t.Errorf("node %s: %d buffered instances", n, b.len())
			}
			if b.parts != nil && len(b.parts.str)+len(b.parts.text) > 1000 {
				t.Errorf("node %s: %d buffer partitions", n, len(b.parts.str)+len(b.parts.text))
			}
		}
		if st.hist == nil {
			continue
		}
		if st.hist.len() > 2000 {
			t.Errorf("node %s: %d history entries", n, st.hist.len())
		}
		if k := st.hist.keyed; k != nil && len(k.str)+len(k.text) > 2000 {
			t.Errorf("node %s: %d history keys", n, len(k.str)+len(k.text))
		}
	}
	if h.eng.Metrics().Detections == 0 {
		t.Fatal("soak produced no detections; scenario is vacuous")
	}
}

// quietRules are the soak's rule shapes: Rules 1, 2, 4 and 5.
func quietRules() map[int]event.Expr {
	return map[int]event.Expr{
		1: &event.Within{
			X:   &event.Seq{L: primVars("r", "o", "t1"), R: primVars("r", "o", "t2")},
			Max: 5 * time.Second,
		},
		2: &event.Within{
			X:   &event.Seq{L: &event.Not{X: prim("shelf", "o", "t1")}, R: prim("shelf", "o", "t2")},
			Max: 45 * time.Second,
		},
		4: &event.TSeq{
			L:  &event.TSeqPlus{X: prim("rA", "o1", "t1"), Lo: 0, Hi: time.Second},
			R:  prim("rB", "o2", "t2"),
			Lo: 5 * time.Second, Hi: 10 * time.Second,
		},
		5: &event.Within{
			X:   &event.And{L: prim("rC", "a", "ta"), R: &event.Not{X: prim("rD", "b", "tb")}},
			Max: 5 * time.Second,
		},
	}
}

// quietStream mixes cycling and once-read objects at 20 reads/s, with a
// 2 s pause every 200 reads so the TSEQ+ runs close. rD reads every 20 s,
// so some of rC's reads are clean; both go quiet halfway, so Rule 5's
// state gets no arrival after a mid-stream checkpoint.
func quietStream(n int) []event.Observation {
	out := make([]event.Observation, 0, n)
	for i := 0; i < n; i++ {
		reader, object := "conveyor", fmt.Sprintf("epc-%d", i/10)
		switch k := i % 10; {
		case k < 3:
			reader, object = "rA", objName(i%7)
		case k == 3:
			reader, object = "rB", "case"
		case k == 4 && i < n/2:
			reader, object = "rC", fmt.Sprintf("c-%d", i/10%500)
		case k == 5 && i < n/2 && i%400 == 5:
			reader, object = "rD", objName(i)
		case k >= 8:
			reader, object = "shelf", fmt.Sprintf("epc-%d", i/20)
		}
		out = append(out, obs(reader, object, float64(i)*0.05+float64(i/200)*2))
	}
	return out
}

// TestSoakQuietPeriodReleasesState: after one AdvanceTo past every window
// with no arrivals, every node whose state can expire holds none — no
// buffered instance, partition, history entry or history key — whether or
// not a checkpoint was taken and restored mid-stream.
func TestSoakQuietPeriodReleasesState(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	stream := quietStream(50_000)
	quiet := stream[len(stream)-1].At.Add(10 * time.Minute)
	mod := func(c *Config) { c.MaxOpenSequence = 4096 }

	ref := newHarness(t, quietRules(), mod)
	ref.feed(stream...)
	if !holdsExpiringState(ref.eng) {
		t.Fatal("no node holds expiring state before the quiet period; the test is vacuous")
	}
	if err := ref.eng.AdvanceTo(quiet); err != nil {
		t.Fatal(err)
	}
	assertReleased(t, ref.eng)
	perRule := map[int]int{}
	for _, d := range ref.sights {
		perRule[d.rule]++
	}
	for rule := range quietRules() {
		if perRule[rule] == 0 {
			t.Fatalf("rule %d never detects; the scenario is vacuous (%v)", rule, perRule)
		}
	}
	var want bytes.Buffer
	if err := ref.eng.SaveCheckpoint(&want); err != nil {
		t.Fatal(err)
	}

	first := newHarness(t, quietRules(), mod)
	first.feed(stream[:len(stream)/2]...)
	var mid bytes.Buffer
	if err := first.eng.SaveCheckpoint(&mid); err != nil {
		t.Fatal(err)
	}
	second := newHarness(t, quietRules(), mod)
	if err := second.eng.RestoreCheckpoint(&mid); err != nil {
		t.Fatal(err)
	}
	second.feed(stream[len(stream)/2:]...)
	if err := second.eng.AdvanceTo(quiet); err != nil {
		t.Fatal(err)
	}
	assertReleased(t, second.eng)
	got := append(sigWithRule(first.sights), sigWithRule(second.sights)...)
	if !reflect.DeepEqual(got, sigWithRule(ref.sights)) {
		t.Errorf("restored run detects %d instance(s), uninterrupted %d, or in another order", len(got), len(ref.sights))
	}
	var end bytes.Buffer
	if err := second.eng.SaveCheckpoint(&end); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(end.Bytes(), want.Bytes()) {
		t.Errorf("final checkpoints differ:\nrestored:      %.400s\nuninterrupted: %.400s", end.Bytes(), want.Bytes())
	}
}

// TestQuietPeriodReleasesWaitingTerminators: a TSEQ whose initiator can
// close late buffers its terminators. Without a WITHIN, a terminator is
// dead once every future initiator ends no earlier than it begins, and its
// node's reclaim event drops it rather than re-arming forever.
func TestQuietPeriodReleasesWaitingTerminators(t *testing.T) {
	h := newHarness(t, map[int]event.Expr{1: &event.TSeq{
		L: &event.Or{L: &event.TSeqPlus{X: prim("rA", "o1", "t1"), Hi: time.Second}, R: prim("rD", "o1", "t1")},
		R: prim("rB", "o2", "t2"), Hi: 10 * time.Second,
	}}, nil)
	// The run [0 s] closes at 1 s and takes the terminator that waited
	// since 0.5 s; the one at 5 s waits for an initiator that never comes.
	h.feed(obs("rA", "x", 0), obs("rB", "y", 0.5), obs("rB", "z", 5))
	if err := h.eng.AdvanceTo(ts(100)); err != nil {
		t.Fatal(err)
	}
	if len(h.sights) != 1 {
		t.Fatalf("%d detection(s), want 1", len(h.sights))
	}
	assertReleased(t, h.eng)
}

func sigWithRule(ds []detection) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = fmt.Sprintf("%d %s %s %s", d.rule, d.inst.Binds, d.inst.Begin, d.inst.End)
	}
	return out
}

// holdsExpiringState reports whether some node with a finite Retention or
// reclaimEvery holds a buffered instance or history entry.
func holdsExpiringState(e *Engine) bool {
	for _, n := range e.g.Nodes {
		st := e.states[n.ID]
		if st.reclaimEvery > 0 && (st.left.len() > 0 || st.right != nil && st.right.len() > 0) {
			return true
		}
		if st.hist != nil && n.Retention > 0 && st.hist.len() > 0 {
			return true
		}
	}
	return false
}

func assertReleased(t *testing.T, e *Engine) {
	t.Helper()
	for _, n := range e.g.Nodes {
		st := e.states[n.ID]
		if st.reclaimEvery > 0 {
			for _, b := range []*buffer{st.left, st.right} {
				if b == nil {
					continue
				}
				if b.len() > 0 {
					t.Errorf("node %s: %d buffered instance(s) after the quiet period", n, b.len())
				}
				if b.parts != nil && len(b.parts.str)+len(b.parts.text) > 0 {
					t.Errorf("node %s: %d buffer partition(s) after the quiet period", n, len(b.parts.str)+len(b.parts.text))
				}
			}
		}
		if st.hist == nil || n.Retention == 0 {
			continue
		}
		if st.hist.len() > 0 {
			t.Errorf("node %s: %d history entr(ies) after the quiet period", n, st.hist.len())
		}
		if k := st.hist.keyed; k != nil && len(k.str)+len(k.text) > 0 {
			t.Errorf("node %s: %d history key(s) after the quiet period", n, len(k.str)+len(k.text))
		}
	}
}

func objName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i%10))
}
