package detect

import (
	"fmt"
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

func objName(i int) string {
	return string(rune('a'+i%26)) + string(rune('0'+i%10))
}
