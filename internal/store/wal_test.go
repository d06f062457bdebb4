package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rcep/internal/core/event"
)

// snapshotThenWAL builds a store, snapshots it, journals further
// mutations, and returns (snapshot, wal, live store).
func snapshotThenWAL(t *testing.T) (*bytes.Buffer, *bytes.Buffer, *Store, *WAL) {
	t.Helper()
	s := OpenRFID()
	loc, _ := s.Table(TableLocation)
	_ = loc.Insert([]event.Value{
		event.StringValue("o1"), event.StringValue("w1"), event.TimeValue(ts(0)), event.TimeValue(UC),
	})
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	var walBuf bytes.Buffer
	wal, err := NewWAL(s, &walBuf)
	if err != nil {
		t.Fatal(err)
	}
	return &snap, &walBuf, s, wal
}

func dump(t *testing.T, s *Store, table string) []string {
	t.Helper()
	tbl, err := s.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	tbl.Scan(func(id int64, r Row) bool {
		parts := []string{fmt.Sprint(id)}
		for _, v := range r {
			parts = append(parts, Format(v))
		}
		out = append(out, strings.Join(parts, "|"))
		return true
	})
	return out
}

func TestWALRecovery(t *testing.T) {
	snap, walBuf, live, wal := snapshotThenWAL(t)

	// Post-snapshot activity: the Rule 3 UC pattern plus deletes.
	loc, _ := live.Table(TableLocation)
	if _, err := loc.Update(
		func(r Row) bool { return r[0].Str() == "o1" && r[3].Time() == UC },
		func(r Row) (Row, error) { r[3] = event.TimeValue(ts(10)); return r, nil },
	); err != nil {
		t.Fatal(err)
	}
	_ = loc.Insert([]event.Value{
		event.StringValue("o1"), event.StringValue("store"), event.TimeValue(ts(10)), event.TimeValue(UC),
	})
	obs, _ := live.Table(TableObservation)
	_ = obs.Insert([]event.Value{event.StringValue("r1"), event.StringValue("o1"), event.TimeValue(ts(10))})
	deleteRows(obs, func(r Row) bool { return true })
	if err := wal.Flush(); err != nil {
		t.Fatal(err)
	}
	if wal.Entries() != 4 {
		t.Fatalf("journaled %d entries, want 4", wal.Entries())
	}

	// Crash-recover: snapshot + WAL replay must equal the live store.
	recovered, err := Load(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayWAL(recovered, bytes.NewReader(walBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, table := range []string{TableLocation, TableObservation, TableContainment} {
		if got, want := dump(t, recovered, table), dump(t, live, table); !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverged:\n got %v\nwant %v", table, got, want)
		}
	}
	// Indexes stay consistent: current location query works.
	if l, ok := LocationAt(recovered, "o1", ts(99)); !ok || l != "store" {
		t.Errorf("recovered LocationAt: %v %v", l, ok)
	}
	// Inserts after recovery do not collide with replayed IDs.
	loc2, _ := recovered.Table(TableLocation)
	if err := loc2.Insert([]event.Value{
		event.StringValue("o2"), event.StringValue("x"), event.TimeValue(ts(20)), event.TimeValue(UC),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestWALRandomizedRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := New()
	if err := s.CreateTable("t", Schema{
		{Name: "k", Type: event.KindString},
		{Name: "v", Type: event.KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := s.Table("t")
	_ = tbl.CreateIndex("k")
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	var walBuf bytes.Buffer
	wal, _ := NewWAL(s, &walBuf)
	for i := 0; i < 500; i++ {
		switch rng.Intn(3) {
		case 0:
			_ = tbl.Insert([]event.Value{
				event.StringValue(fmt.Sprintf("k%d", rng.Intn(20))), event.IntValue(int64(i)),
			})
		case 1:
			key := fmt.Sprintf("k%d", rng.Intn(20))
			_, _ = tbl.Update(
				func(r Row) bool { return r[0].Str() == key },
				func(r Row) (Row, error) { r[1] = event.IntValue(r[1].Int() + 1); return r, nil },
			)
		case 2:
			mod := int64(rng.Intn(7) + 2)
			deleteRows(tbl, func(r Row) bool { return r[1].Int()%mod == 0 })
		}
	}
	if err := wal.Flush(); err != nil {
		t.Fatal(err)
	}
	recovered, err := Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := ReplayWAL(recovered, bytes.NewReader(walBuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := dump(t, recovered, "t"), dump(t, s, "t"); !reflect.DeepEqual(got, want) {
		t.Fatalf("randomized recovery diverged: %d vs %d rows", len(got), len(want))
	}
	// Index correctness on the recovered store: lookups match scans.
	rec, _ := recovered.Table("t")
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("k%d", i)
		viaIdx := 0
		_ = rec.Lookup("k", event.StringValue(key), func(int64, Row) bool { viaIdx++; return true })
		viaScan := 0
		rec.Scan(func(_ int64, r Row) bool {
			if r[0].Str() == key {
				viaScan++
			}
			return true
		})
		if viaIdx != viaScan {
			t.Fatalf("recovered index inconsistent for %s: %d vs %d", key, viaIdx, viaScan)
		}
	}
}

func TestWALReplayErrors(t *testing.T) {
	s := OpenRFID()
	if err := ReplayWAL(s, strings.NewReader("garbage")); err == nil {
		t.Errorf("garbage WAL accepted")
	}
	if err := ReplayWAL(s, strings.NewReader(`{"t":"NOPE","o":0,"id":1,"r":[]}`+"\n")); err == nil {
		t.Errorf("unknown table accepted")
	}
	if err := ReplayWAL(s, strings.NewReader(`{"t":"ALERTS","o":1,"id":7}`+"\n")); err == nil {
		t.Errorf("update of missing row accepted")
	}
	if err := ReplayWAL(s, strings.NewReader(`{"t":"ALERTS","o":2,"id":7}`+"\n")); err == nil {
		t.Errorf("delete of missing row accepted")
	}
	if err := ReplayWAL(s, strings.NewReader(`{"t":"ALERTS","o":9,"id":7}`+"\n")); err == nil {
		t.Errorf("unknown op accepted")
	}
	if err := ReplayWAL(s, strings.NewReader(`{"t":"ALERTS","o":0,"id":1,"r":[{"s":"x"}]}`+"\n")); err == nil {
		t.Errorf("bad arity insert accepted")
	}
}

func TestJournalDetach(t *testing.T) {
	s := OpenRFID()
	var walBuf bytes.Buffer
	wal, _ := NewWAL(s, &walBuf)
	obs, _ := s.Table(TableObservation)
	_ = obs.Insert([]event.Value{event.StringValue("r"), event.StringValue("o"), event.TimeValue(0)})
	s.SetJournal(nil)
	_ = obs.Insert([]event.Value{event.StringValue("r"), event.StringValue("o2"), event.TimeValue(1)})
	if wal.Entries() != 1 {
		t.Fatalf("detached journal still recording: %d", wal.Entries())
	}
	// New tables inherit the (nil) journal.
	_ = s.CreateTable("fresh", Schema{{Name: "a", Type: event.KindString}})
	f, _ := s.Table("fresh")
	_ = f.Insert([]event.Value{event.StringValue("x")})
	if wal.Entries() != 1 {
		t.Fatalf("new table journaled after detach")
	}
}
