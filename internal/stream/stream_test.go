package stream

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"rcep/internal/core/event"
)

func ts(sec float64) event.Time { return event.Time(sec * float64(time.Second)) }

func o(id string, sec float64) event.Observation {
	return event.Observation{Reader: "r", Object: id, At: ts(sec)}
}

func TestSortAndIsSorted(t *testing.T) {
	obs := []event.Observation{o("c", 3), o("a", 1), o("b", 2)}
	if event.Batch(obs).Sorted() {
		t.Errorf("unsorted reported sorted")
	}
	Sort(obs)
	if !event.Batch(obs).Sorted() || obs[0].Object != "a" || obs[2].Object != "c" {
		t.Errorf("sort: %v", obs)
	}
}

func TestSortIsStable(t *testing.T) {
	obs := []event.Observation{o("first", 1), o("second", 1), o("third", 1)}
	Sort(obs)
	if obs[0].Object != "first" || obs[2].Object != "third" {
		t.Errorf("stability lost: %v", obs)
	}
}

func TestMerge(t *testing.T) {
	a := []event.Observation{o("a1", 1), o("a2", 4)}
	b := []event.Observation{o("b1", 2), o("b2", 3), o("b3", 5)}
	var empty []event.Observation
	got := Merge(a, b, empty)
	if len(got) != 5 || !event.Batch(got).Sorted() {
		t.Fatalf("merge: %v", got)
	}
	want := []string{"a1", "b1", "b2", "a2", "b3"}
	for i, w := range want {
		if got[i].Object != w {
			t.Errorf("merge[%d] = %s, want %s", i, got[i].Object, w)
		}
	}
	if len(Merge()) != 0 {
		t.Errorf("empty merge should be empty")
	}
}

func TestMergeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var streams [][]event.Observation
		total := 0
		for s := 0; s < 4; s++ {
			n := r.Intn(20)
			var st []event.Observation
			tcur := 0.0
			for i := 0; i < n; i++ {
				tcur += r.Float64()
				st = append(st, o("x", tcur))
			}
			total += n
			streams = append(streams, st)
		}
		m := Merge(streams...)
		return len(m) == total && event.Batch(m).Sorted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReorderReleasesInOrder(t *testing.T) {
	var got []event.Observation
	r := NewReorder(2*time.Second, func(obs event.Observation) error {
		got = append(got, obs)
		return nil
	})
	for _, obs := range []event.Observation{o("a", 1), o("c", 3), o("b", 2.5), o("d", 6)} {
		if err := r.Push(obs); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("released %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].At < got[i-1].At {
			t.Fatalf("out of order delivery: %v", got)
		}
	}
	if got[1].Object != "b" {
		t.Errorf("late b not reordered: %v", got)
	}
}

func TestReorderDropsTooLate(t *testing.T) {
	var dropped []event.Observation
	var got []event.Observation
	r := NewReorder(1*time.Second, func(obs event.Observation) error {
		got = append(got, obs)
		return nil
	})
	r.OnDrop = func(obs event.Observation) { dropped = append(dropped, obs) }
	_ = r.Push(o("a", 10))
	_ = r.Push(o("b", 20)) // watermark advances to 19; releases a@10
	_ = r.Push(o("late", 5))
	_ = r.Flush()
	if len(dropped) != 1 || dropped[0].Object != "late" {
		t.Fatalf("dropped: %v", dropped)
	}
	if len(got) != 2 {
		t.Fatalf("released: %v", got)
	}
}

// TestReorderKeepsReadAtWatermark: a read exactly at the released
// watermark (same instant, another reader, slack late) is released in
// order; only an older one is dropped.
func TestReorderKeepsReadAtWatermark(t *testing.T) {
	var got, dropped []event.Observation
	r := NewReorder(time.Second, func(obs event.Observation) error {
		got = append(got, obs)
		return nil
	})
	r.OnDrop = func(obs event.Observation) { dropped = append(dropped, obs) }
	for _, obs := range []event.Observation{o("a", 10), o("c", 11), o("b", 10)} {
		if err := r.Push(obs); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.Push(o("late", 9)); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, obs := range got {
		names = append(names, obs.Object)
	}
	if strings.Join(names, ",") != "a,b,c" {
		t.Fatalf("released %v, want a,b,c", names)
	}
	if len(dropped) != 1 || dropped[0].Object != "late" {
		t.Fatalf("dropped %v, want only late@9", dropped)
	}
}

func TestReorderPropertyAgainstSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Generate a stream with bounded displacement < slack.
		slack := 3 * time.Second
		n := 50
		base := make([]event.Observation, n)
		tcur := 0.0
		for i := range base {
			tcur += rng.Float64()
			base[i] = o("x", tcur)
		}
		shuffled := append([]event.Observation(nil), base...)
		// Local shuffle within windows of 3 (< slack since gaps < 1s each).
		for i := 0; i+1 < len(shuffled); i += 2 {
			if rng.Intn(2) == 0 {
				shuffled[i], shuffled[i+1] = shuffled[i+1], shuffled[i]
			}
		}
		var got []event.Observation
		r := NewReorder(slack, func(obs event.Observation) error {
			got = append(got, obs)
			return nil
		})
		for _, obs := range shuffled {
			if err := r.Push(obs); err != nil {
				return false
			}
		}
		if err := r.Flush(); err != nil {
			return false
		}
		if len(got) != n || !event.Batch(got).Sorted() {
			t.Logf("seed %d: %d released, sorted=%t", seed, len(got), event.Batch(got).Sorted())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := []event.Observation{o("a", 1), o("b", 2.5), o("c", 3.125)}
	src := "r,a,1.000\nr,b,2.500\nr,c,3.125\n"
	var got []event.Observation
	n, err := ReadCSV(strings.NewReader(src), func(obs event.Observation) error {
		got = append(got, obs)
		return nil
	})
	if err != nil || n != 3 {
		t.Fatalf("ReadCSV: n=%d err=%v", n, err)
	}
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("row %d: %v != %v", i, got[i], in[i])
		}
	}
}

func TestCSVCommentsAndErrors(t *testing.T) {
	src := "# header\n\nr1,o1,1.0\n"
	n, err := ReadCSV(strings.NewReader(src), func(event.Observation) error { return nil })
	if err != nil || n != 1 {
		t.Fatalf("comments: n=%d err=%v", n, err)
	}
	if _, err := ReadCSV(strings.NewReader("r1,o1\n"), func(event.Observation) error { return nil }); err == nil {
		t.Errorf("short line accepted")
	}
	if _, err := ReadCSV(strings.NewReader("r1,o1,xx\n"), func(event.Observation) error { return nil }); err == nil {
		t.Errorf("bad timestamp accepted")
	}
	sinkErr := fmt.Errorf("sink boom")
	if _, err := ReadCSV(strings.NewReader("r1,o1,1\n"), func(event.Observation) error { return sinkErr }); err == nil {
		t.Errorf("sink error swallowed")
	}
}

// TestReorderPendingCount: observations within the slack stay pending —
// nothing is released — until Flush releases all of them.
func TestReorderPendingCount(t *testing.T) {
	var out []event.Observation
	r := NewReorder(10*time.Second, func(ob event.Observation) error { out = append(out, ob); return nil })
	_ = r.Push(o("a", 1))
	_ = r.Push(o("b", 2))
	if len(out) != 0 {
		t.Errorf("released within the slack: %v", out)
	}
	_ = r.Flush()
	if len(out) != 2 || out[0].Object != "a" || out[1].Object != "b" {
		t.Errorf("released after flush: %v", out)
	}
}
