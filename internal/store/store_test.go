package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// deleteRows removes every row where accepts through DeleteWhere's scan
// and returns the count.
func deleteRows(tbl *Table, where func(Row) bool) int {
	n, _ := tbl.DeleteWhere(Probe{}, func(r Row) (bool, error) { return where(r), nil })
	return n
}

func TestDeleteAndCompact(t *testing.T) {
	tbl := newTestTable(t)
	for i := 0; i < 100; i++ {
		_ = tbl.Insert([]event.Value{
			event.StringValue(fmt.Sprintf("e%d", i)), event.IntValue(int64(i % 2)), event.TimeValue(0),
		})
	}
	n := deleteRows(tbl, func(r Row) bool { return r[1].Int() == 0 })
	if n != 50 || tbl.Len() != 50 {
		t.Fatalf("DeleteWhere: n=%d len=%d", n, tbl.Len())
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
	deleteRows(tbl, func(r Row) bool { return r[0].Str() == "b" })
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

// TestDeleteChurnKeepsRowsBounded: under insert/delete churn the deleted
// slots are compacted away, len(rows) <= 2*live+1 after every delete, and
// the index still finds exactly the live rows.
func TestDeleteChurnKeepsRowsBounded(t *testing.T) {
	tbl := newTestTable(t)
	if err := tbl.CreateIndex("epc"); err != nil {
		t.Fatal(err)
	}
	const inserts, maxLive = 100_000, 10
	for i := 0; i < inserts; i++ {
		_ = tbl.Insert([]event.Value{event.StringValue(fmt.Sprintf("e%d", i%3)), event.IntValue(int64(i)), event.TimeValue(0)})
		if tbl.Len() <= maxLive {
			continue
		}
		old := int64(i - maxLive)
		if n := deleteRows(tbl, func(r Row) bool { return r[1].Int() == old }); n != 1 {
			t.Fatalf("insert %d: deleted %d rows", i, n)
		}
		if live, slots := tbl.Len(), len(tbl.rows); slots > 2*live+1 {
			t.Fatalf("insert %d: %d slots for %d live rows", i, slots, live)
		}
	}
	for k := 0; k < 3; k++ {
		key := fmt.Sprintf("e%d", k)
		if got, want := lookupQtys(tbl, key), scanQtys(tbl, key); got != want {
			t.Errorf("key %s: index %s, scan %s", key, got, want)
		}
	}
}

// lookupQtys and scanQtys list the (id, qty) of the rows whose epc is key,
// found through Lookup and through Scan.
func lookupQtys(tbl *Table, key string) string {
	var sb strings.Builder
	_ = tbl.Lookup("epc", event.StringValue(key), func(id int64, r Row) bool {
		fmt.Fprintf(&sb, "%d:%d ", id, r[1].Int())
		return true
	})
	return sb.String()
}

func scanQtys(tbl *Table, key string) string {
	var sb strings.Builder
	tbl.Scan(func(id int64, r Row) bool {
		if r[0].Str() == key {
			fmt.Fprintf(&sb, "%d:%d ", id, r[1].Int())
		}
		return true
	})
	return sb.String()
}

// TestCompactionKeepsOrderProbesAndReplay drives a journaled, indexed
// table through inserts, updates that move rows between keys and deletes
// that compact it, checking after each round that a scan visits rows in
// insertion order (IDs and qtys both ascend), that every index probe
// agrees with the scan, and that replaying the journal by ID onto an
// empty copy rebuilds the same table.
func TestCompactionKeepsOrderProbesAndReplay(t *testing.T) {
	s, replica := New(), New()
	for _, st := range []*Store{s, replica} {
		if err := st.CreateTable("items", testSchema()); err != nil {
			t.Fatal(err)
		}
		tb, _ := st.Table("items")
		if err := tb.CreateIndex("epc"); err != nil {
			t.Fatal(err)
		}
	}
	var wal bytes.Buffer
	w, _ := NewWAL(s, &wal)
	tbl, _ := s.Table("items")
	rep, _ := replica.Table("items")
	nextQty := int64(0)
	r := rand.New(rand.NewSource(7))
	compactions := 0
	for round := 0; round < 40; round++ {
		for i := r.Intn(30); i > 0; i-- {
			_ = tbl.Insert([]event.Value{event.StringValue(fmt.Sprintf("e%d", r.Intn(5))), event.IntValue(nextQty), event.TimeValue(0)})
			nextQty++
		}
		mod := int64(2 + r.Intn(3))
		_, _ = tbl.Update(func(r Row) bool { return r[1].Int()%mod == 0 },
			func(r Row) (Row, error) { r[0] = event.StringValue(fmt.Sprintf("e%d", r[1].Int()%5)); return r, nil })
		before := len(tbl.rows)
		cut := int64(r.Intn(int(nextQty) + 1))
		deleteRows(tbl, func(r Row) bool { return r[1].Int() < cut && r[1].Int()%3 != 0 })
		if len(tbl.rows) < before && tbl.Len() == len(tbl.rows) {
			compactions++
		}
		lastID, lastQty, n := int64(-1), int64(-1), 0
		tbl.Scan(func(id int64, row Row) bool {
			if id <= lastID || row[1].Int() <= lastQty {
				t.Fatalf("round %d: scan visits %d:%d after %d:%d", round, id, row[1].Int(), lastID, lastQty)
			}
			lastID, lastQty = id, row[1].Int()
			n++
			return true
		})
		if n != tbl.Len() {
			t.Fatalf("round %d: scan found %d rows, Len %d", round, n, tbl.Len())
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := ReplayWAL(replica, bytes.NewReader(wal.Bytes())); err != nil {
			t.Fatalf("round %d: replay: %v", round, err)
		}
		wal.Reset()
		for k := 0; k < 5; k++ {
			key := fmt.Sprintf("e%d", k)
			want := scanQtys(tbl, key)
			if got := lookupQtys(tbl, key); got != want {
				t.Fatalf("round %d key %s: index %s, scan %s", round, key, got, want)
			}
			if got := scanQtys(rep, key); got != want {
				t.Fatalf("round %d key %s: replica scan %s, want %s", round, key, got, want)
			}
			if got := lookupQtys(rep, key); got != want {
				t.Fatalf("round %d key %s: replica index %s, want %s", round, key, got, want)
			}
		}
	}
	if compactions == 0 {
		t.Fatal("no round compacted the table")
	}
}

// TestReplayOutOfOrderIDs: a journal may name IDs the table has never
// assigned in order, or a deleted row's ID again; replay keeps the rows in
// ID order and the index in step.
func TestReplayOutOfOrderIDs(t *testing.T) {
	tbl := newTestTable(t)
	_ = tbl.CreateIndex("epc")
	row := func(epc string, qty int64) Row {
		return Row{event.StringValue(epc), event.IntValue(qty), event.TimeValue(0)}
	}
	for _, m := range []Mutation{
		{Op: OpInsert, ID: 5, Row: row("a", 5)},
		{Op: OpInsert, ID: 2, Row: row("a", 2)},
		{Op: OpInsert, ID: 9, Row: row("b", 9)},
		{Op: OpDelete, ID: 5},
		{Op: OpInsert, ID: 5, Row: row("a", 55)},
		{Op: OpInsert, ID: 7, Row: row("a", 7)},
		{Op: OpUpdate, ID: 9, Row: row("a", 99)},
	} {
		if err := tbl.applyMutation(m); err != nil {
			t.Fatalf("%v %d: %v", m.Op, m.ID, err)
		}
	}
	if err := tbl.applyMutation(Mutation{Op: OpInsert, ID: 7, Row: row("a", 1)}); err == nil {
		t.Errorf("insert of a live id accepted")
	}
	const want = "2:2 5:55 7:7 9:99 "
	if got := scanQtys(tbl, "a"); got != want {
		t.Errorf("scan %s, want %s", got, want)
	}
	if got := lookupQtys(tbl, "a"); got != want {
		t.Errorf("index %s, want %s", got, want)
	}
	if err := tbl.Insert([]event.Value{event.StringValue("a"), event.IntValue(10), event.TimeValue(0)}); err != nil {
		t.Fatal(err)
	}
	if got := lookupQtys(tbl, "a"); got != want+"10:10 " {
		t.Errorf("after insert: index %s", got)
	}
}

// TestStoredRowsAreImmutable: a row a scan, lookup or journal handed out
// keeps its values after the table updates or deletes it.
func TestStoredRowsAreImmutable(t *testing.T) {
	tbl := newTestTable(t)
	_ = tbl.CreateIndex("epc")
	var journaled Row
	tbl.journal = func(m Mutation) {
		if m.Op == OpInsert {
			journaled = m.Row
		}
	}
	_ = tbl.Insert([]event.Value{event.StringValue("a"), event.IntValue(1), event.TimeValue(0)})
	var scanned, looked Row
	tbl.Scan(func(_ int64, r Row) bool { scanned = r; return true })
	_ = tbl.Lookup("epc", event.StringValue("a"), func(_ int64, r Row) bool { looked = r; return true })
	if _, err := tbl.Update(func(Row) bool { return true },
		func(r Row) (Row, error) { r[0], r[1] = event.StringValue("b"), event.IntValue(2); return r, nil }); err != nil {
		t.Fatal(err)
	}
	deleteRows(tbl, func(Row) bool { return true })
	for name, r := range map[string]Row{"scan": scanned, "lookup": looked, "journal": journaled} {
		if r[0].Str() != "a" || r[1].Int() != 1 {
			t.Errorf("%s row changed to %v", name, r)
		}
	}
}

// TestAllocBudgetTableLookup: every statement finds its table by name, and
// rule actions name theirs in upper case. Folding the name allocates
// nothing, and a non-ASCII name still folds as strings.ToLower does.
func TestAllocBudgetTableLookup(t *testing.T) {
	s := OpenRFID()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Table("OBJECTLOCATION"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("allocs per Table(%q): %.1f, want 0", "OBJECTLOCATION", allocs)
	}
	if err := s.CreateTable("Ärger", testSchema()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ärger", "ÄRGER", "objectlocation", "ObjectLocation"} {
		if _, err := s.Table(name); err != nil {
			t.Errorf("Table(%q): %v", name, err)
		}
	}
	if _, err := s.Table("OBJECTLOCATIONS"); err == nil {
		t.Errorf("Table of a missing name succeeded")
	}
}

// TestChainMatchesScanEveryKeyKind drives an indexed column of each kind,
// with null cells and, for floats, 0 beside -0, through inserts, updates
// that move rows between keys, deletes, a compaction and an out-of-order
// replay. After each step every Lookup, UpdateWhere and DeleteWhere probe
// must visit exactly the rows a filtered Scan visits, in the same order.
func TestChainMatchesScanEveryKeyKind(t *testing.T) {
	negZero := event.FloatValue(math.Copysign(0, -1))
	otherNaN := event.FloatValue(math.Float64frombits(0x7FF8000000000ABC))
	for _, tc := range []struct {
		kind   event.Kind
		cells  []event.Value // the values rows hold
		probes []event.Value // probed beside the cells
	}{
		{event.KindString,
			[]event.Value{event.StringValue("a"), event.StringValue("b"), event.StringValue(""), event.Null},
			[]event.Value{event.StringValue("zz"), event.IntValue(1)}},
		{event.KindInt,
			[]event.Value{event.IntValue(0), event.IntValue(1), event.IntValue(-7), event.Null},
			[]event.Value{event.BoolValue(true), event.FloatValue(1), event.TimeValue(1), event.IntValue(2)}},
		{event.KindTime,
			[]event.Value{event.TimeValue(0), event.TimeValue(1), event.TimeValue(UC), event.Null},
			[]event.Value{event.IntValue(1), event.StringValue("UC"), event.BoolValue(true)}},
		{event.KindBool,
			[]event.Value{event.BoolValue(true), event.BoolValue(false), event.Null},
			[]event.Value{event.IntValue(1), event.StringValue("true")}},
		{event.KindFloat,
			[]event.Value{event.FloatValue(0), negZero, event.FloatValue(1.5), event.FloatValue(2), event.FloatValue(math.NaN()), otherNaN, event.Null},
			[]event.Value{event.IntValue(2), event.IntValue(0), event.BoolValue(false), event.FloatValue(-1.5)}},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			s := New()
			if err := s.CreateTable("t", Schema{{Name: "k", Type: tc.kind}, {Name: "q", Type: event.KindInt}}); err != nil {
				t.Fatal(err)
			}
			tbl, _ := s.Table("t")
			if err := tbl.CreateIndex("k"); err != nil {
				t.Fatal(err)
			}
			probes := append(append([]event.Value{}, tc.cells...), tc.probes...)
			// qs lists the q of the rows visit is given, which are unique.
			qs := func(each func(visit func(Row))) string {
				var sb strings.Builder
				each(func(r Row) { fmt.Fprintf(&sb, "%d ", r[1].Int()) })
				return sb.String()
			}
			check := func(step string) {
				t.Helper()
				for _, v := range probes {
					cv := probeKey(v, tc.kind)
					want := qs(func(visit func(Row)) {
						tbl.Scan(func(_ int64, r Row) bool {
							if r[0].Equal(cv) {
								visit(r)
							}
							return true
						})
					})
					lookup := qs(func(visit func(Row)) {
						_ = tbl.Lookup("k", v, func(_ int64, r Row) bool { visit(r); return true })
					})
					update := qs(func(visit func(Row)) {
						_, _ = tbl.UpdateWhere(Probe{Col: "k", Val: v},
							func(r Row) (bool, error) { visit(r); return false, nil },
							func(r Row) (Row, error) { return r, nil })
					})
					del := qs(func(visit func(Row)) {
						_, _ = tbl.DeleteWhere(Probe{Col: "k", Val: v}, func(r Row) (bool, error) { visit(r); return false, nil })
					})
					if lookup != want || update != want || del != want {
						t.Fatalf("%s: probe %v (%s): scan [%s], Lookup [%s], UpdateWhere [%s], DeleteWhere [%s]",
							step, v, v.Kind(), want, lookup, update, del)
					}
				}
			}
			r := rand.New(rand.NewSource(int64(tc.kind)))
			q := int64(0)
			insert := func(n int) {
				for range n {
					if err := tbl.Insert([]event.Value{tc.cells[r.Intn(len(tc.cells))], event.IntValue(q)}); err != nil {
						t.Fatal(err)
					}
					q++
				}
			}
			insert(60)
			check("insert")
			// Every third row moves to another key, landing among rows both
			// older and newer than itself.
			if _, err := tbl.UpdateWhere(Probe{}, func(r Row) (bool, error) { return r[1].Int()%3 == 0, nil },
				func(r Row) (Row, error) { r[0] = tc.cells[int(r[1].Int()/3)%len(tc.cells)]; return r, nil }); err != nil {
				t.Fatal(err)
			}
			// A probed update moves the first cell's rows onto the last's.
			if _, err := tbl.UpdateWhere(Probe{Col: "k", Val: tc.cells[0]}, func(r Row) (bool, error) { return r[1].Int()%2 == 0, nil },
				func(r Row) (Row, error) { r[0] = tc.cells[len(tc.cells)-1]; return r, nil }); err != nil {
				t.Fatal(err)
			}
			check("update")
			deleteRows(tbl, func(r Row) bool { return r[1].Int()%5 == 1 })
			if len(tbl.rows) == tbl.Len() {
				t.Fatal("delete compacted; the uncompacted step is not covered")
			}
			check("delete")
			insert(10)
			deleteRows(tbl, func(r Row) bool { return r[1].Int()%4 != 0 })
			if len(tbl.rows) != tbl.Len() {
				t.Fatalf("no compaction: %d positions, %d live", len(tbl.rows), tbl.Len())
			}
			check("compact")
			// Replay reinserts deleted IDs, each between live ones: after the
			// compaction their slots are gone, so every later position moves.
			for id := int64(1); id < 40; id += 6 {
				if err := tbl.applyMutation(Mutation{Op: OpInsert, ID: id, Row: Row{tc.cells[int(id)%len(tc.cells)], event.IntValue(1000 + id)}}); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("replay insert %d", id))
			}
			// A deleted slot not yet compacted away takes its ID back in place.
			if err := tbl.applyMutation(Mutation{Op: OpDelete, ID: 8}); err != nil {
				t.Fatal(err)
			}
			if err := tbl.applyMutation(Mutation{Op: OpInsert, ID: 8, Row: Row{tc.cells[1], event.IntValue(2008)}}); err != nil {
				t.Fatal(err)
			}
			check("replay into a deleted slot")
		})
	}
	// A cell updated to a NaN moves to the NaN chain, so deleting the row
	// unlinks it and no chain keeps it.
	s := New()
	_ = s.CreateTable("f", Schema{{Name: "f", Type: event.KindFloat}})
	ft, _ := s.Table("f")
	_ = ft.CreateIndex("f")
	for _, f := range []float64{1, 1, 2} {
		_ = ft.Insert([]event.Value{event.FloatValue(f)})
	}
	nan := event.FloatValue(math.NaN())
	_, _ = ft.UpdateWhere(Probe{}, func(r Row) (bool, error) { return r[0].Float() == 2, nil },
		func(r Row) (Row, error) { r[0] = nan; return r, nil })
	deleteRows(ft, func(r Row) bool { return math.IsNaN(r[0].Float()) })
	for f, want := range map[float64]int{1: 2, 2: 0} {
		n := 0
		_ = ft.Lookup("f", event.FloatValue(f), func(int64, Row) bool { n++; return true })
		if n != want {
			t.Errorf("after a NaN update and delete: Lookup(%v) found %d rows, want %d", f, n, want)
		}
	}
	// A bool probe shares the chain of an int column's 1s, and finds none.
	tbl := newTestTable(t)
	if err := tbl.CreateIndex("qty"); err != nil {
		t.Fatal(err)
	}
	_ = tbl.Insert([]event.Value{event.StringValue("a"), event.IntValue(1), event.TimeValue(0)})
	n := 0
	_ = tbl.Lookup("qty", event.BoolValue(true), func(int64, Row) bool { n++; return true })
	if n != 0 {
		t.Errorf("BoolValue(true) probe on an int column holding 1 found %d rows", n)
	}
}

// TestFloatLookupMatchesScanWithNaN holds a float column to the scan
// when it stores a NaN: a NaN Equals only a NaN, so a Lookup of NaN and
// a Lookup of 1 each visit exactly the rows a filtered Scan visits.
func TestFloatLookupMatchesScanWithNaN(t *testing.T) {
	s := New()
	if err := s.CreateTable("f", Schema{{Name: "f", Type: event.KindFloat}}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.Table("f")
	if err := tbl.CreateIndex("f"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1, math.NaN(), 2.5} {
		if err := tbl.Insert([]event.Value{event.FloatValue(f)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []event.Value{event.FloatValue(math.NaN()), event.FloatValue(1)} {
		var scan, lookup []int64
		tbl.Scan(func(id int64, r Row) bool {
			if r[0].Equal(key) {
				scan = append(scan, id)
			}
			return true
		})
		_ = tbl.Lookup("f", key, func(id int64, _ Row) bool { lookup = append(lookup, id); return true })
		if !slices.Equal(lookup, scan) || len(scan) != 1 {
			t.Errorf("key %v: Lookup visits %v, filtered Scan %v; want the one row holding it", key, lookup, scan)
		}
	}
}
