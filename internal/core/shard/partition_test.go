package shard

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

func seq(l, r event.Expr, max time.Duration) event.Expr {
	return &event.Within{X: &event.Seq{L: l, R: r}, Max: max}
}

// shardOf returns the shard whose ByShard list holds ruleID, or -1.
func shardOf(p *Partition, ruleID int) int {
	for s, rs := range p.ByShard {
		for _, r := range rs {
			if r.ID == ruleID {
				return s
			}
		}
	}
	return -1
}

func TestPartitionDisjointReadersSplit(t *testing.T) {
	rules := []Rule{
		{ID: 1, Expr: seq(lit("r0", "o", "t1"), lit("r0", "o", "t2"), time.Second)},
		{ID: 2, Expr: seq(lit("r1", "o", "t1"), lit("r1", "o", "t2"), time.Second)},
		{ID: 3, Expr: seq(lit("r2", "o", "t1"), lit("r3", "o", "t2"), time.Second)},
	}
	p := NewPartition(rules, 8, nil) // nil groups: every reader its own group
	if p.NumShards() != 3 {
		t.Fatalf("3 disjoint rules on 8 shards → %d shards, want 3", p.NumShards())
	}
	for _, r := range rules {
		if shardOf(p, r.ID) < 0 {
			t.Errorf("rule %d unassigned", r.ID)
		}
	}
	if s1, s2 := shardOf(p, 1), shardOf(p, 2); s1 == s2 {
		t.Errorf("disjoint rules 1,2 share shard %d", s1)
	}
}

func TestPartitionSharedReaderCoShards(t *testing.T) {
	rules := []Rule{
		{ID: 1, Expr: seq(lit("r0", "o", "t1"), lit("r1", "o", "t2"), time.Second)},
		{ID: 2, Expr: seq(lit("r1", "o", "t1"), lit("r2", "o", "t2"), time.Second)},
		{ID: 3, Expr: seq(lit("r4", "o", "t1"), lit("r5", "o", "t2"), time.Second)},
	}
	p := NewPartition(rules, 8, nil)
	if shardOf(p, 1) != shardOf(p, 2) {
		t.Errorf("rules sharing reader r1 on different shards: %d vs %d", shardOf(p, 1), shardOf(p, 2))
	}
	if shardOf(p, 3) == shardOf(p, 1) {
		t.Errorf("independent rule 3 packed with class of 1,2 despite free shards")
	}
}

func TestPartitionGroupOverlapCoShards(t *testing.T) {
	// Rule 2 is keyed on group "even"; reader r0 belongs to "even", so a
	// literal-r0 rule shares its key space and must co-shard.
	rules := []Rule{
		{ID: 1, Expr: seq(lit("r0", "o", "t1"), lit("r0", "o", "t2"), time.Second)},
		{ID: 2, Expr: seq(
			vars("r", "o", "t1", event.Pred{Fn: "group", Arg: "r", Op: event.CmpEq, Val: "even"}),
			vars("r", "o", "t2", event.Pred{Fn: "group", Arg: "r", Op: event.CmpEq, Val: "even"}),
			time.Second)},
		{ID: 3, Expr: seq(lit("r1", "o", "t1"), lit("r1", "o", "t2"), time.Second)},
	}
	p := NewPartition(rules, 8, genGroups)
	if shardOf(p, 1) != shardOf(p, 2) {
		t.Errorf("group-keyed rule 2 not co-sharded with literal rule 1: %d vs %d", shardOf(p, 2), shardOf(p, 1))
	}
	if shardOf(p, 3) == shardOf(p, 1) {
		t.Errorf("odd-reader rule 3 packed with even class despite free shards")
	}
}

func TestPartitionWildBroadcast(t *testing.T) {
	rules := []Rule{
		{ID: 1, Expr: seq(lit("r0", "o", "t1"), lit("r0", "o", "t2"), time.Second)},
		{ID: 2, Expr: seq(vars("r", "o", "u1"), vars("r", "o", "u2"), time.Second)},
	}
	p := NewPartition(rules, 4, genGroups)
	r := NewRouter(p, genGroups)
	wildShard := shardOf(p, 2)
	for _, reader := range append(append([]string(nil), genReaders...), "rz", "never-seen") {
		set := r.ShardsFor(reader)
		found := false
		for _, s := range set {
			if s == wildShard {
				found = true
			}
		}
		if !found {
			t.Errorf("ShardsFor(%q) = %v misses broadcast shard %d", reader, set, wildShard)
		}
	}
	if set := r.ShardsFor("never-seen"); len(set) != 1 || set[0] != wildShard {
		t.Errorf("unknown reader routes to %v, want only broadcast shard %d", set, wildShard)
	}
}

func TestPartitionRespectsMaxShards(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rules := genRules(r, 24)
	for _, max := range []int{-3, 0, 1, 2, 4, 8, 100} {
		p := NewPartition(rules, max, genGroups)
		want := max
		if want < 1 {
			want = 1
		}
		if p.NumShards() > want {
			t.Errorf("maxShards=%d → %d shards", max, p.NumShards())
		}
		// Every rule lands on exactly one shard.
		total := 0
		for _, rs := range p.ByShard {
			total += len(rs)
		}
		if total != len(rules) {
			t.Errorf("maxShards=%d: %d rule slots, want %d", max, total, len(rules))
		}
		for _, rl := range rules {
			if shardOf(p, rl.ID) < 0 {
				t.Errorf("maxShards=%d: rule %d unassigned", max, rl.ID)
			}
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	rules := genRules(r, 16)
	a := NewPartition(rules, 4, genGroups)
	b := NewPartition(rules, 4, genGroups)
	if !reflect.DeepEqual(a.ByShard, b.ByShard) {
		t.Fatalf("partition not deterministic:\n%v\nvs\n%v", a.ByShard, b.ByShard)
	}
}

// leafMatcher is the ground-truth oracle for the fan-out filter: one
// single-prim detect.Engine per leaf of a rule. matches reports whether any
// leaf of the rule can match the observation — if it can, the router must
// route the observation to the rule's shard.
type leafMatcher struct {
	engines []*detect.Engine
	hits    int
}

func newLeafMatcher(t testing.TB, expr event.Expr) *leafMatcher {
	t.Helper()
	m := &leafMatcher{}
	for i, p := range graph.Leaves(expr) {
		b := graph.NewBuilder()
		if _, err := b.AddRule(i, p); err != nil {
			t.Fatalf("leaf rule: %v", err)
		}
		eng, err := detect.New(detect.Config{
			Graph:    b.Finalize(),
			Groups:   genGroups,
			TypeOf:   genTypeOf,
			OnDetect: func(int, *event.Instance) { m.hits++ },
		})
		if err != nil {
			t.Fatalf("leaf engine: %v", err)
		}
		m.engines = append(m.engines, eng)
	}
	return m
}

// matches feeds the observation to every leaf engine (observations must
// arrive in stream order) and reports whether any leaf matched it.
func (m *leafMatcher) matches(t testing.TB, o event.Observation) bool {
	t.Helper()
	m.hits = 0
	for _, eng := range m.engines {
		if err := eng.Ingest(o); err != nil {
			t.Fatalf("leaf ingest: %v", err)
		}
	}
	return m.hits > 0
}

// checkRouterCoverage verifies the fan-out filter against the leaf-match
// oracle: every rule is assigned to a shard, and no observation that any of
// a rule's leaves can match is skipped by ShardsFor. Shared by the property
// test below and FuzzPartitionCoverage.
func checkRouterCoverage(t testing.TB, rules []Rule, stream []event.Observation, maxShards int) {
	t.Helper()
	p := NewPartition(rules, maxShards, genGroups)
	router := NewRouter(p, genGroups)
	matchers := make([]*leafMatcher, len(rules))
	shards := make([]int, len(rules))
	for i, rl := range rules {
		matchers[i] = newLeafMatcher(t, rl.Expr)
		shards[i] = shardOf(p, rl.ID)
		if shards[i] < 0 || shards[i] >= p.NumShards() {
			t.Fatalf("rule %d assigned to shard %d of %d", rl.ID, shards[i], p.NumShards())
		}
	}
	for _, o := range stream {
		set := router.ShardsFor(o.Reader)
		routed := map[int]bool{}
		for _, s := range set {
			routed[s] = true
		}
		for i, rl := range rules {
			if matchers[i].matches(t, o) && !routed[shards[i]] {
				t.Fatalf("observation %v matches a leaf of rule %d (shard %d) but routed only to %v",
					o, rl.ID, shards[i], set)
			}
		}
	}
}

func TestPropertyRouterCoverage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rules := genRules(r, 1+r.Intn(12))
		stream := genStream(r, 30+r.Intn(50))
		checkRouterCoverage(t, rules, stream, 1+r.Intn(8))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
