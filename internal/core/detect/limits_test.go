package detect

import (
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// Buffer/history caps: production hardening against unbounded rules.

func buildEngine(t *testing.T, cfg Config, rules map[int]event.Expr) (*Engine, *[]detection) {
	t.Helper()
	b := graph.NewBuilder()
	for id, e := range rules {
		if _, err := b.AddRule(id, e); err != nil {
			t.Fatal(err)
		}
	}
	var sights []detection
	cfg.Graph = b.Finalize()
	cfg.OnDetect = func(rid int, inst *event.Instance) {
		sights = append(sights, detection{rid, inst})
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, &sights
}

func TestBufferCapEvictsOldest(t *testing.T) {
	// Unbounded SEQ: initiators accumulate forever without a cap.
	rules := map[int]event.Expr{
		1: &event.Seq{L: prim("rA", "o1", "t1"), R: prim("rB", "o2", "t2")},
	}
	eng, _ := buildEngine(t, Config{Limits: Limits{MaxPartitionBuffer: 10}}, rules)
	for i := 0; i < 100; i++ {
		if err := eng.Ingest(obs("rA", "x", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	m := eng.Metrics()
	if m.Dropped != 90 {
		t.Fatalf("dropped = %d, want 90", m.Dropped)
	}
	nodes, _ := eng.Snapshot()
	for _, n := range nodes {
		if n.LeftBuffer > 10 {
			t.Errorf("buffer exceeded cap: %+v", n)
		}
	}
	// The newest initiators survive: a terminator pairs with the oldest
	// RETAINED one (chronicle over what's left).
	var got []detection
	engGot := eng
	_ = engGot
	eng2, sights := buildEngine(t, Config{Limits: Limits{MaxPartitionBuffer: 10}}, map[int]event.Expr{
		1: &event.Seq{L: prim("rA", "o1", "t1"), R: prim("rB", "o2", "t2")},
	})
	for i := 0; i < 100; i++ {
		_ = eng2.Ingest(obs("rA", "x", float64(i)))
	}
	_ = eng2.Ingest(obs("rB", "y", 200))
	got = *sights
	if len(got) != 1 || got[0].inst.Binds.Val("t1").Time() != ts(90) {
		t.Fatalf("pairing after eviction: %v", got)
	}
}

func TestHistoryCapEvictsOldest(t *testing.T) {
	rules := map[int]event.Expr{
		1: &event.Within{
			X:   &event.And{L: prim("r1", "o1", "t1"), R: &event.Not{X: prim("r2", "o2", "t2")}},
			Max: 1000 * time.Second, // huge retention so only the cap prunes
		},
	}
	eng, _ := buildEngine(t, Config{Limits: Limits{MaxHistory: 5}}, rules)
	for i := 0; i < 50; i++ {
		if err := eng.Ingest(obs("r2", "u", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	m := eng.Metrics()
	if m.Dropped != 45 {
		t.Fatalf("dropped = %d, want 45", m.Dropped)
	}
	nodes, _ := eng.Snapshot()
	for _, n := range nodes {
		if n.History > 5 {
			t.Errorf("history exceeded cap: %+v", n)
		}
	}
}

// TestHistoryCapSparesExpiredEntries: entries past Retention are pruned
// before the cap evicts, so an expired entry is never counted as dropped.
// The r2 history's Retention is 20 s, so its reclaim event runs at 20 s,
// 40 s, …: the read at 100 s follows a sweep that found both entries
// expired; the read at 39.5 s finds them expired while the last sweep, at
// 20 s, had not.
func TestHistoryCapSparesExpiredEntries(t *testing.T) {
	rules := map[int]event.Expr{
		1: &event.Within{
			X:   &event.And{L: prim("r1", "o1", "t1"), R: &event.Not{X: prim("r2", "o2", "t2")}},
			Max: 5 * time.Second,
		},
	}
	for _, last := range []float64{100, 39.5} {
		eng, _ := buildEngine(t, Config{Limits: Limits{MaxHistory: 2}}, rules)
		for _, at := range []float64{0, 1, last} {
			if err := eng.Ingest(obs("r2", "u", at)); err != nil {
				t.Fatal(err)
			}
		}
		if m := eng.Metrics(); m.Dropped != 0 {
			t.Errorf("last read at %gs: dropped = %d, want 0: both older entries had expired", last, m.Dropped)
		}
		nodes, _ := eng.Snapshot()
		for _, n := range nodes {
			if n.History > 1 {
				t.Errorf("last read at %gs: expired entries retained: %+v", last, n)
			}
		}
	}
}

func TestUnboundedByDefault(t *testing.T) {
	rules := map[int]event.Expr{
		1: &event.Seq{L: prim("rA", "o1", "t1"), R: prim("rB", "o2", "t2")},
	}
	eng, _ := buildEngine(t, Config{}, rules)
	for i := 0; i < 200; i++ {
		_ = eng.Ingest(obs("rA", "x", float64(i)))
	}
	if m := eng.Metrics(); m.Dropped != 0 {
		t.Fatalf("unbounded engine dropped %d", m.Dropped)
	}
}
