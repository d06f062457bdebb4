package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rcep/internal/core/event"
)

func ts(sec float64) event.Time { return event.Time(sec * float64(time.Second)) }

func testSchema() Schema {
	return Schema{
		{Name: "epc", Type: event.KindString},
		{Name: "qty", Type: event.KindInt},
		{Name: "at", Type: event.KindTime},
	}
}

func newTestTable(t *testing.T) *Table {
	t.Helper()
	s := New()
	if err := s.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("items")
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestCreateTableValidation(t *testing.T) {
	s := New()
	if err := s.CreateTable("t", nil); err == nil {
		t.Errorf("empty schema accepted")
	}
	if err := s.CreateTable("t", Schema{{Name: "a"}, {Name: "A"}}); err == nil {
		t.Errorf("duplicate column accepted")
	}
	if err := s.CreateTable("t", Schema{{Name: "a"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("T", Schema{{Name: "a"}}); err == nil {
		t.Errorf("case-insensitive duplicate table accepted")
	}
	if _, err := s.Table("nope"); err == nil {
		t.Errorf("missing table lookup should fail")
	}
	if err := s.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropTable("t"); err == nil {
		t.Errorf("double drop accepted")
	}
}

func TestInsertScanOrder(t *testing.T) {
	tbl := newTestTable(t)
	for i := 0; i < 5; i++ {
		err := tbl.Insert([]event.Value{
			event.StringValue(fmt.Sprintf("e%d", i)),
			event.IntValue(int64(i)),
			event.TimeValue(ts(float64(i))),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Len() != 5 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	var got []string
	tbl.Scan(func(_ int64, r Row) bool {
		got = append(got, r[0].Str())
		return true
	})
	for i, epc := range got {
		if epc != fmt.Sprintf("e%d", i) {
			t.Errorf("scan order broken: %v", got)
			break
		}
	}
}

func TestInsertArityAndTypeErrors(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.Insert([]event.Value{event.StringValue("x")}); err == nil {
		t.Errorf("wrong arity accepted")
	}
	err := tbl.Insert([]event.Value{
		event.StringValue("x"), event.StringValue("not-a-number"), event.TimeValue(0),
	})
	if err == nil {
		t.Errorf("string into int column accepted")
	}
}

func TestCoercion(t *testing.T) {
	cases := []struct {
		v    event.Value
		kind event.Kind
		want event.Value
		ok   bool
	}{
		{event.IntValue(5), event.KindFloat, event.FloatValue(5), true},
		{event.FloatValue(5.7), event.KindInt, event.IntValue(5), true},
		{event.IntValue(100), event.KindTime, event.TimeValue(100), true},
		{event.StringValue("UC"), event.KindTime, event.TimeValue(UC), true},
		{event.StringValue("other"), event.KindTime, event.Null, false},
		{event.IntValue(3), event.KindString, event.StringValue("3"), true},
		{event.StringValue("true"), event.KindBool, event.BoolValue(true), true},
		{event.StringValue("maybe"), event.KindBool, event.Null, false},
		{event.Null, event.KindInt, event.Null, true},
		{event.TimeValue(ts(1)), event.KindInt, event.IntValue(int64(ts(1))), true},
	}
	for _, c := range cases {
		got, err := Coerce(c.v, c.kind)
		if (err == nil) != c.ok {
			t.Errorf("Coerce(%v, %v): err = %v, want ok=%t", c.v, c.kind, err, c.ok)
			continue
		}
		if c.ok && !got.Equal(c.want) && got.Kind() != c.want.Kind() {
			t.Errorf("Coerce(%v, %v) = %v, want %v", c.v, c.kind, got, c.want)
		}
	}
}

func TestUCFormat(t *testing.T) {
	if Format(event.TimeValue(UC)) != "UC" {
		t.Errorf("UC should render as UC")
	}
	if Format(event.TimeValue(ts(1))) == "UC" {
		t.Errorf("ordinary time rendered as UC")
	}
}

func TestUpdateAndUC(t *testing.T) {
	tbl := newTestTable(t)
	_ = tbl.Insert([]event.Value{event.StringValue("e1"), event.IntValue(1), event.TimeValue(UC)})
	_ = tbl.Insert([]event.Value{event.StringValue("e2"), event.IntValue(2), event.TimeValue(UC)})
	n, err := tbl.Update(
		func(r Row) bool { return r[0].Str() == "e1" && r[2].Time() == UC },
		func(r Row) (Row, error) { r[2] = event.TimeValue(ts(9)); return r, nil },
	)
	if err != nil || n != 1 {
		t.Fatalf("Update: n=%d err=%v", n, err)
	}
	var closed, open int
	tbl.Scan(func(_ int64, r Row) bool {
		if r[2].Time() == UC {
			open++
		} else {
			closed++
		}
		return true
	})
	if closed != 1 || open != 1 {
		t.Errorf("closed=%d open=%d", closed, open)
	}
}

func TestDeleteAndCompact(t *testing.T) {
	tbl := newTestTable(t)
	for i := 0; i < 100; i++ {
		_ = tbl.Insert([]event.Value{
			event.StringValue(fmt.Sprintf("e%d", i)), event.IntValue(int64(i % 2)), event.TimeValue(0),
		})
	}
	n := tbl.Delete(func(r Row) bool { return r[1].Int() == 0 })
	if n != 50 || tbl.Len() != 50 {
		t.Fatalf("Delete: n=%d len=%d", n, tbl.Len())
	}
	count := 0
	tbl.Scan(func(_ int64, r Row) bool { count++; return true })
	if count != 50 {
		t.Errorf("scan after delete: %d", count)
	}
}

// TestIndexLookupMatchesScan checks that an index probe visits rows in
// insertion order, like a scan, after an UPDATE has moved rows between
// keys, and that a WAL replay and a Save/Load copy of the store agree.
func TestIndexLookupMatchesScan(t *testing.T) {
	s := New()
	if err := s.CreateTable("items", testSchema()); err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.Table("items")
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		_ = tbl.Insert([]event.Value{
			event.StringValue(fmt.Sprintf("e%d", r.Intn(50))),
			event.IntValue(int64(i)),
			event.TimeValue(ts(float64(i))),
		})
	}
	if err := tbl.CreateIndex("epc"); err != nil {
		t.Fatal(err)
	}
	if !tbl.HasIndex("epc") {
		t.Fatalf("index missing")
	}
	var snap, wal bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	w, _ := NewWAL(s, &wal)
	// Move every fourth row onto another key; each lands among rows both
	// older and newer than itself.
	if _, err := tbl.Update(
		func(r Row) bool { return r[1].Int()%4 == 0 },
		func(r Row) (Row, error) { r[0] = event.StringValue(fmt.Sprintf("e%d", r[1].Int()*7%50)); return r, nil },
	); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	replayed, err := Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayWAL(replayed, &wal); err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := s.Save(&after); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&after)
	if err != nil {
		t.Fatal(err)
	}
	copies := []*Table{tbl}
	for _, c := range []*Store{replayed, loaded} {
		ct, _ := c.Table("items")
		copies = append(copies, ct)
	}
	// Rows are compared by qty, unique per row: Load renumbers row IDs.
	probe := func(tb *Table, key string) string {
		var out []string
		_ = tb.Lookup("epc", event.StringValue(key), func(_ int64, row Row) bool {
			out = append(out, row[1].String())
			return true
		})
		return strings.Join(out, ",")
	}
	f := func(k uint8) bool {
		key := fmt.Sprintf("e%d", int(k)%60)
		var viaScan []string
		tbl.Scan(func(_ int64, row Row) bool {
			if row[0].Str() == key {
				viaScan = append(viaScan, row[1].String())
			}
			return true
		})
		want := strings.Join(viaScan, ",")
		for i, c := range copies {
			if got := probe(c, key); got != want {
				t.Logf("key %s copy %d: index %s, scan %s", key, i, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexMaintainedAcrossUpdateDelete(t *testing.T) {
	tbl := newTestTable(t)
	_ = tbl.CreateIndex("epc")
	for i := 0; i < 10; i++ {
		_ = tbl.Insert([]event.Value{event.StringValue("a"), event.IntValue(int64(i)), event.TimeValue(0)})
	}
	// Move half to key "b".
	_, err := tbl.Update(
		func(r Row) bool { return r[1].Int()%2 == 0 },
		func(r Row) (Row, error) { r[0] = event.StringValue("b"); return r, nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	countKey := func(k string) int {
		n := 0
		_ = tbl.Lookup("epc", event.StringValue(k), func(int64, Row) bool { n++; return true })
		return n
	}
	if countKey("a") != 5 || countKey("b") != 5 {
		t.Fatalf("after update: a=%d b=%d", countKey("a"), countKey("b"))
	}
	tbl.Delete(func(r Row) bool { return r[0].Str() == "b" })
	if countKey("b") != 0 || countKey("a") != 5 {
		t.Fatalf("after delete: a=%d b=%d", countKey("a"), countKey("b"))
	}
}

// TestProbeWithoutIndexFallsBack: a Probe selects the same rows, in the
// same order, whether or not its column is indexed, and a probe on a
// missing column changes nothing.
func TestProbeWithoutIndexFallsBack(t *testing.T) {
	var logs [2][]Mutation
	for i, indexed := range []bool{false, true} {
		tbl := newTestTable(t)
		tbl.journal = func(m Mutation) { logs[i] = append(logs[i], m) }
		for n := 0; n < 12; n++ {
			_ = tbl.Insert([]event.Value{event.StringValue(fmt.Sprintf("e%d", n%3)), event.IntValue(int64(n)), event.TimeValue(0)})
		}
		if indexed {
			_ = tbl.CreateIndex("epc")
		}
		odd := func(r Row) (bool, error) { return r[1].Int()%2 == 1, nil }
		n, err := tbl.UpdateWhere(Probe{Col: "epc", Val: event.StringValue("e1")}, odd,
			func(r Row) (Row, error) { r[0] = event.StringValue("e0"); return r, nil })
		if err != nil || n != 2 {
			t.Fatalf("indexed=%v: UpdateWhere n=%d err=%v", indexed, n, err)
		}
		if n, err := tbl.DeleteWhere(Probe{Col: "epc", Val: event.StringValue("e0")}, odd); err != nil || n != 4 {
			t.Fatalf("indexed=%v: DeleteWhere n=%d err=%v", indexed, n, err)
		}
		if _, err := tbl.DeleteWhere(Probe{Col: "bogus"}, odd); err == nil {
			t.Errorf("indexed=%v: probe on a missing column accepted", indexed)
		}
	}
	if scan, index := jsonOf(t, logs[0]), jsonOf(t, logs[1]); scan != index {
		t.Errorf("journals differ:\nscan  %s\nindex %s", scan, index)
	}
}

// jsonOf renders v as JSON, which tags every event.Value with its kind.
// Values hold their payloads behind a pointer, so reflect.DeepEqual would
// compare string addresses; comparing these renderings is as strict on
// contents (-0 and 0 differ, and a NaN fails to render).
func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestLookupWithoutIndexFallsBack(t *testing.T) {
	tbl := newTestTable(t)
	_ = tbl.Insert([]event.Value{event.StringValue("x"), event.IntValue(1), event.TimeValue(0)})
	n := 0
	if err := tbl.Lookup("epc", event.StringValue("x"), func(int64, Row) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("fallback lookup found %d", n)
	}
	if err := tbl.Lookup("bogus", event.Null, func(int64, Row) bool { return true }); err == nil {
		t.Errorf("lookup on missing column accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	tbl := newTestTable(t)
	_ = tbl.CreateIndex("epc")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = tbl.Insert([]event.Value{
					event.StringValue(fmt.Sprintf("w%d", w)),
					event.IntValue(int64(i)),
					event.TimeValue(0),
				})
				if i%10 == 0 {
					tbl.Scan(func(int64, Row) bool { return true })
					_ = tbl.Lookup("epc", event.StringValue("w0"), func(int64, Row) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
	if tbl.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", tbl.Len(), 8*200)
	}
}

func TestOpenRFIDSchema(t *testing.T) {
	s := OpenRFID()
	want := []string{TableAlerts, TableInventory, TableContainment, TableLocation, TableObservation}
	got := s.Tables()
	if len(got) != len(want) {
		t.Fatalf("tables: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("tables: %v, want %v", got, want)
			break
		}
	}
	loc, err := s.Table(TableLocation)
	if err != nil {
		t.Fatal(err)
	}
	if !loc.HasIndex("object_epc") {
		t.Errorf("OBJECTLOCATION should be indexed on object_epc")
	}
}

func TestTemporalHelpers(t *testing.T) {
	s := OpenRFID()
	loc, _ := s.Table(TableLocation)
	// o1: at warehouse during [0, 10), then store during [10, UC).
	_ = loc.Insert([]event.Value{event.StringValue("o1"), event.StringValue("warehouse"), event.TimeValue(ts(0)), event.TimeValue(ts(10))})
	_ = loc.Insert([]event.Value{event.StringValue("o1"), event.StringValue("storeA"), event.TimeValue(ts(10)), event.TimeValue(UC)})

	if l, ok := LocationAt(s, "o1", ts(5)); !ok || l != "warehouse" {
		t.Errorf("LocationAt(5) = %v %v", l, ok)
	}
	if l, ok := LocationAt(s, "o1", ts(10)); !ok || l != "storeA" {
		t.Errorf("LocationAt(10) = %v %v", l, ok)
	}
	if l, ok := LocationAt(s, "o1", ts(99999)); !ok || l != "storeA" {
		t.Errorf("LocationAt(UC period) = %v %v", l, ok)
	}
	if _, ok := LocationAt(s, "o2", ts(1)); ok {
		t.Errorf("unknown object located")
	}

	cont, _ := s.Table(TableContainment)
	_ = cont.Insert([]event.Value{event.StringValue("i1"), event.StringValue("case1"), event.TimeValue(ts(1)), event.TimeValue(UC)})
	_ = cont.Insert([]event.Value{event.StringValue("i2"), event.StringValue("case1"), event.TimeValue(ts(1)), event.TimeValue(ts(5))})
	if p, ok := ContainerAt(s, "i1", ts(2)); !ok || p != "case1" {
		t.Errorf("ContainerAt = %v %v", p, ok)
	}
	if _, ok := ContainerAt(s, "i2", ts(6)); ok {
		t.Errorf("expired containment still reported")
	}
	got := ContentsAt(s, "case1", ts(2))
	if len(got) != 2 {
		t.Errorf("ContentsAt(2) = %v", got)
	}
	got = ContentsAt(s, "case1", ts(6))
	if len(got) != 1 || got[0] != "i1" {
		t.Errorf("ContentsAt(6) = %v", got)
	}
}

func TestSchemaIndexCaseInsensitive(t *testing.T) {
	s := testSchema()
	if s.Index("EPC") != 0 || s.Index("Qty") != 1 || s.Index("nope") != -1 {
		t.Errorf("Schema.Index case handling broken")
	}
}
