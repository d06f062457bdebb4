package store

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"rcep/internal/core/event"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	s := OpenRFID()
	loc, _ := s.Table(TableLocation)
	_ = loc.Insert([]event.Value{
		event.StringValue("o1"), event.StringValue("warehouse"), event.TimeValue(ts(0)), event.TimeValue(ts(10)),
	})
	_ = loc.Insert([]event.Value{
		event.StringValue("o1"), event.StringValue("store"), event.TimeValue(ts(10)), event.TimeValue(UC),
	})
	obsT, _ := s.Table(TableObservation)
	_ = obsT.Insert([]event.Value{
		event.StringValue("r1"), event.StringValue("o1"), event.TimeValue(ts(3)),
	})

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Same tables.
	if strings.Join(loaded.Tables(), ",") != strings.Join(s.Tables(), ",") {
		t.Fatalf("tables: %v vs %v", loaded.Tables(), s.Tables())
	}
	// Same rows, UC preserved, insertion order preserved.
	l2, _ := loaded.Table(TableLocation)
	if l2.Len() != 2 {
		t.Fatalf("location rows: %d", l2.Len())
	}
	var locs []string
	var lastEnd event.Time
	l2.Scan(func(_ int64, r Row) bool {
		locs = append(locs, r[1].Str())
		lastEnd = r[3].Time()
		return true
	})
	if locs[0] != "warehouse" || locs[1] != "store" {
		t.Errorf("order lost: %v", locs)
	}
	if lastEnd != UC {
		t.Errorf("UC lost: %v", lastEnd)
	}
	// Index definitions survive.
	if !l2.HasIndex("object_epc") {
		t.Errorf("index definition lost")
	}
	// Temporal helpers behave identically.
	if l, ok := LocationAt(loaded, "o1", ts(99)); !ok || l != "store" {
		t.Errorf("LocationAt on loaded store: %v %v", l, ok)
	}
}

func TestSaveLoadValueKinds(t *testing.T) {
	s := New()
	_ = s.CreateTable("t", Schema{
		{Name: "s", Type: event.KindString},
		{Name: "i", Type: event.KindInt},
		{Name: "f", Type: event.KindFloat},
		{Name: "b", Type: event.KindBool},
		{Name: "tm", Type: event.KindTime},
	})
	tbl, _ := s.Table("t")
	_ = tbl.Insert([]event.Value{
		event.StringValue("x"), event.IntValue(-7), event.FloatValue(2.25),
		event.BoolValue(true), event.TimeValue(ts(1.5)),
	})
	_ = tbl.Insert([]event.Value{event.Null, event.Null, event.Null, event.Null, event.Null})

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lt, _ := loaded.Table("t")
	var rows []Row
	lt.Scan(func(_ int64, r Row) bool { rows = append(rows, r); return true })
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	r := rows[0]
	if r[0].Str() != "x" || r[1].Int() != -7 || r[2].Float() != 2.25 || !r[3].Bool() || r[4].Time() != ts(1.5) {
		t.Errorf("row 0: %v", r)
	}
	for i, v := range rows[1] {
		if !v.IsNull() {
			t.Errorf("null col %d became %v", i, v)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("not-json")); err == nil {
		t.Errorf("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"tables":[{"name":"t","columns":[{"name":"a","type":"alien"}]}]}`)); err == nil {
		t.Errorf("unknown type accepted")
	}
	if _, err := Load(strings.NewReader(`{"tables":[{"name":"t","columns":[{"name":"a","type":"int"}],"rows":[[{"s":"notint"}]]}]}`)); err == nil {
		t.Errorf("type mismatch accepted")
	}
}

// sameValue reports whether two values have the same kind and contents,
// NULLs included at any depth.
func sameValue(a, b event.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case event.KindNull:
		return true
	case event.KindList:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Elem(i), b.Elem(i)) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// TestLoadSnapshotWithNullCells: a snapshot written when NULL cells were
// rendered as {} (testdata/snapshot_nulls.json) still loads, NULLs inside
// nested lists included, and saving it again renders them as null.
func TestLoadSnapshotWithNullCells(t *testing.T) {
	raw, err := os.ReadFile("testdata/snapshot_nulls.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.HasIndex("s") {
		t.Errorf("index on s lost")
	}
	want := []Row{
		{
			event.StringValue("x"),
			event.ListValue([]event.Value{event.IntValue(1), event.StringValue("a"),
				event.ListValue([]event.Value{event.BoolValue(true), event.Null, event.FloatValue(0.5)})}),
			event.Null,
			event.TimeValue(1500000000),
		},
		{event.Null, event.Null, event.IntValue(-3), event.Null},
	}
	var got []Row
	tbl.Scan(func(_ int64, r Row) bool { got = append(got, r); return true })
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				t.Errorf("row %d col %d = %v (%v), want %v (%v)", i, j, got[i][j], got[i][j].Kind(), want[i][j], want[i][j].Kind())
			}
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if resaved := bytes.ReplaceAll(raw, []byte("{}"), []byte("null")); !bytes.Equal(buf.Bytes(), resaved) {
		t.Errorf("re-saved snapshot\n%s\nwant\n%s", buf.Bytes(), resaved)
	}
}
