package reader

import (
	"math/rand"
	"testing"
	"time"

	"rcep/internal/core/event"
)

func ts(sec float64) event.Time { return event.Time(sec * float64(time.Second)) }

func TestObserveBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := &Reader{ID: "r1"}
	obs := r.Observe(rng, "o1", ts(5))
	if len(obs) != 1 || obs[0].Reader != "r1" || obs[0].Object != "o1" || obs[0].At != ts(5) {
		t.Fatalf("observe: %v", obs)
	}
}

func TestObserveDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := &Reader{ID: "r1", DupProb: 1.0, DupDelay: 100 * time.Millisecond}
	obs := r.Observe(rng, "o1", ts(5))
	if len(obs) != 2 {
		t.Fatalf("want duplicate, got %v", obs)
	}
	if obs[1].At != ts(5.1) {
		t.Errorf("duplicate delay: %v", obs[1].At)
	}
	// Default delay applies when unset.
	r2 := &Reader{ID: "r2", DupProb: 1.0}
	obs2 := r2.Observe(rng, "o1", ts(5))
	if len(obs2) != 2 || obs2[1].At <= obs2[0].At {
		t.Errorf("default dup delay: %v", obs2)
	}
}

func TestObserveMissRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := &Reader{ID: "r1", MissProb: 0.5}
	missed := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if len(r.Observe(rng, "o1", ts(float64(i)))) == 0 {
			missed++
		}
	}
	if missed < n/3 || missed > 2*n/3 {
		t.Errorf("miss rate out of range: %d/%d", missed, n)
	}
}

func TestShelfCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := &Shelf{Reader: Reader{ID: "shelf1"}, Interval: 30 * time.Second}
	obs := s.Cycles(rng, []string{"a", "b"}, ts(0), ts(90))
	// Cycles at 0, 30, 60 → 3 cycles × 2 objects.
	if len(obs) != 6 {
		t.Fatalf("cycle reads: %d, want 6", len(obs))
	}
	if obs[1].At <= obs[0].At {
		t.Errorf("within-cycle skew missing: %v %v", obs[0].At, obs[1].At)
	}
	if s2 := (&Shelf{Reader: Reader{ID: "x"}}); s2.Cycles(rng, []string{"a"}, ts(0), ts(10)) != nil {
		t.Errorf("zero interval should produce nothing")
	}
}

func TestDeployment(t *testing.T) {
	d := NewDeployment()
	if err := d.Add(&Reader{ID: "r1", Groups: []string{"g1"}, Location: "warehouse"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(&Reader{ID: "r2"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(&Reader{ID: "r1"}); err == nil {
		t.Errorf("duplicate reader accepted")
	}
	if err := d.Add(&Reader{}); err == nil {
		t.Errorf("empty reader ID accepted")
	}
	if got := d.GroupsOf("r1"); len(got) != 1 || got[0] != "g1" {
		t.Errorf("GroupsOf(r1): %v", got)
	}
	if got := d.GroupsOf("r2"); len(got) != 1 || got[0] != "r2" {
		t.Errorf("default group: %v", got)
	}
	if got := d.GroupsOf("ghost"); len(got) != 1 || got[0] != "ghost" {
		t.Errorf("unknown reader group: %v", got)
	}
	if d.LocationOf("r1") != "warehouse" || d.LocationOf("r2") != "r2" {
		t.Errorf("locations: %v %v", d.LocationOf("r1"), d.LocationOf("r2"))
	}
}
