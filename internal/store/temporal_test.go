package store

import (
	"reflect"
	"testing"

	"rcep/internal/core/event"
)

// seedChain builds: item i1 contained in case c1 during [5, 50);
// c1 at warehouse [0, 30), at store [30, UC); i1 has its own location
// (shelf) from [50, UC) after unpacking.
func seedChain(t *testing.T) *Store {
	t.Helper()
	s := OpenRFID()
	cont, _ := s.Table(TableContainment)
	loc, _ := s.Table(TableLocation)
	ins := func(tbl *Table, vals ...event.Value) {
		t.Helper()
		if err := tbl.Insert(vals); err != nil {
			t.Fatal(err)
		}
	}
	ins(cont, event.StringValue("i1"), event.StringValue("c1"), event.TimeValue(ts(5)), event.TimeValue(ts(50)))
	ins(loc, event.StringValue("c1"), event.StringValue("warehouse"), event.TimeValue(ts(0)), event.TimeValue(ts(30)))
	ins(loc, event.StringValue("c1"), event.StringValue("store"), event.TimeValue(ts(30)), event.TimeValue(UC))
	ins(loc, event.StringValue("i1"), event.StringValue("shelf"), event.TimeValue(ts(50)), event.TimeValue(UC))
	return s
}

func TestLocationAndContainmentHistory(t *testing.T) {
	s := seedChain(t)
	lh, err := LocationHistory(s, "c1")
	if err != nil {
		t.Fatal(err)
	}
	if len(lh) != 2 || lh[0].Location != "warehouse" || lh[1].Location != "store" {
		t.Fatalf("location history: %v", lh)
	}
	if lh[0].End != ts(30) || lh[1].End != UC {
		t.Errorf("periods: %v", lh)
	}
	ch, err := ContainmentHistory(s, "i1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 1 || ch[0].Parent != "c1" || ch[0].Start != ts(5) || ch[0].End != ts(50) {
		t.Fatalf("containment history: %v", ch)
	}
}

func TestEffectiveLocationFollowsContainment(t *testing.T) {
	s := seedChain(t)
	cases := []struct {
		at   float64
		want string
		ok   bool
	}{
		{6, "warehouse", true}, // inside c1, c1 at warehouse
		{35, "store", true},    // inside c1, c1 moved
		{60, "shelf", true},    // own location after unpacking
		{2, "", false},         // before containment, no own location
	}
	for _, c := range cases {
		got, ok := EffectiveLocationAt(s, "i1", ts(c.at))
		if ok != c.ok || got != c.want {
			t.Errorf("EffectiveLocationAt(i1, %vs) = (%q, %t), want (%q, %t)",
				c.at, got, ok, c.want, c.ok)
		}
	}
}

func TestEffectiveLocationNestedChain(t *testing.T) {
	// item in case, case in pallet, pallet located.
	s := OpenRFID()
	cont, _ := s.Table(TableContainment)
	loc, _ := s.Table(TableLocation)
	_ = cont.Insert([]event.Value{event.StringValue("item"), event.StringValue("case"), event.TimeValue(ts(0)), event.TimeValue(UC)})
	_ = cont.Insert([]event.Value{event.StringValue("case"), event.StringValue("pallet"), event.TimeValue(ts(0)), event.TimeValue(UC)})
	_ = loc.Insert([]event.Value{event.StringValue("pallet"), event.StringValue("truck"), event.TimeValue(ts(0)), event.TimeValue(UC)})
	if got, ok := EffectiveLocationAt(s, "item", ts(10)); !ok || got != "truck" {
		t.Fatalf("nested chain: %q %t", got, ok)
	}
}

func TestEffectiveLocationCycleSafe(t *testing.T) {
	s := OpenRFID()
	cont, _ := s.Table(TableContainment)
	_ = cont.Insert([]event.Value{event.StringValue("a"), event.StringValue("b"), event.TimeValue(ts(0)), event.TimeValue(UC)})
	_ = cont.Insert([]event.Value{event.StringValue("b"), event.StringValue("a"), event.TimeValue(ts(0)), event.TimeValue(UC)})
	if _, ok := EffectiveLocationAt(s, "a", ts(1)); ok {
		t.Fatalf("cycle resolved to a location")
	}
}

func TestTraceMergesStays(t *testing.T) {
	s := seedChain(t)
	trace, err := Trace(s, "i1")
	if err != nil {
		t.Fatal(err)
	}
	var locs []string
	for _, st := range trace {
		locs = append(locs, st.Location)
	}
	want := []string{"warehouse", "store", "shelf"}
	if !reflect.DeepEqual(locs, want) {
		t.Fatalf("trace: %v, want %v", locs, want)
	}
	// Boundaries: warehouse [5, 30), store [30, 50), shelf [50, UC).
	if trace[0].Start != ts(5) || trace[0].End != ts(30) {
		t.Errorf("warehouse stay: %+v", trace[0])
	}
	if trace[1].Start != ts(30) || trace[1].End != ts(50) {
		t.Errorf("store stay: %+v", trace[1])
	}
	if trace[2].End != UC {
		t.Errorf("shelf stay should be open: %+v", trace[2])
	}
}

func TestTraceUnknownObject(t *testing.T) {
	s := OpenRFID()
	trace, err := Trace(s, "ghost")
	if err != nil || trace != nil {
		t.Fatalf("ghost trace: %v %v", trace, err)
	}
}
