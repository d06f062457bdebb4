// Package shard scales the RCEDA detection engine across goroutines by
// statically partitioning the rule set into independent groups and running
// one detect.Engine per group.
//
// Two rules land in the same shard iff their event graphs can match
// overlapping reader/group key spaces (SASE-style attribute partitioning:
// rules over disjoint key spaces never observe each other's inputs, so
// splitting them cannot change detection semantics). Rules with a
// variable-reader leaf that no group(r) = 'g' equality predicate pins fall
// into a broadcast class that receives every observation. Common sub-graph
// merging still happens inside each shard; merging across shards is lost,
// which is a pure optimization (see detect's merged-equals-unmerged
// property test), so the union of the shards' detections equals a single
// engine's.
package shard

import (
	"sort"

	"rcep/internal/core/event"
	"rcep/internal/core/graph"
)

// Rule pairs a rule's graph ID with its event expression.
type Rule struct {
	ID   int
	Expr event.Expr
}

// Partition is the static assignment of rules to shards plus the routing
// index that fans each observation out to the shards whose leaves can
// match it. Build one with NewPartition; it is immutable afterwards and
// safe for concurrent ShardsFor calls only through Router (which adds a
// cache); the raw maps are read-only.
type Partition struct {
	// ByShard lists each shard's rules, ascending by rule ID.
	ByShard [][]Rule

	// readerShards/groupShards index shard IDs by reader literal and
	// group literal; broadcast lists shards holding wild rules, which
	// receive every observation.
	readerShards map[string][]int
	groupShards  map[string][]int
	broadcast    []int
}

// NewPartition groups rules into key-space classes, packs the classes onto
// at most maxShards shards (fewer when there are fewer classes) and builds
// the routing index. groups is the deployment's reader→groups function
// used to connect reader literals with group-predicate rules; nil means
// every reader is its own group, mirroring detect.Config.
func NewPartition(rules []Rule, maxShards int, groups func(string) []string) *Partition {
	if maxShards < 1 {
		maxShards = 1
	}
	if groups == nil {
		groups = func(r string) []string { return []string{r} }
	}
	keys := make([]graph.RouteKey, len(rules))
	for i, r := range rules {
		keys[i] = graph.RouteKeyOf(r.Expr)
	}

	// Union-find over rules. Rules are connected when their key spaces
	// can overlap: a shared reader literal, a shared group literal, a
	// reader literal belonging to a group-keyed rule's group, or both
	// wild. Group membership links literal rules only THROUGH a
	// group-keyed rule — two literal rules whose readers happen to share
	// a group still have disjoint key spaces and may split.
	uf := newUnionFind(len(rules))
	byReader := map[string]int{}
	byGroup := map[string]int{}
	wildClass := -1
	link := func(m map[string]int, key string, i int) {
		if j, ok := m[key]; ok {
			uf.union(i, j)
		} else {
			m[key] = i
		}
	}
	for i, k := range keys { // group-keyed rules anchor their groups
		for _, g := range k.Groups {
			link(byGroup, g, i)
		}
		if k.Wild {
			if wildClass < 0 {
				wildClass = i
			} else {
				uf.union(i, wildClass)
			}
		}
	}
	for i, k := range keys {
		for _, r := range k.Readers {
			link(byReader, r, i)
			// A group-keyed rule over any of this literal reader's
			// groups matches the same observations.
			for _, g := range groups(r) {
				if j, ok := byGroup[g]; ok {
					uf.union(i, j)
				}
			}
		}
	}

	// Collect classes in deterministic order (smallest member rule
	// first) and weigh them by leaf count — the per-observation matching
	// cost a shard pays for hosting the class.
	type class struct {
		rules  []int // indices into rules
		weight int
		wild   bool
	}
	classOf := map[int]*class{}
	var classes []*class
	for i := range rules {
		root := uf.find(i)
		c, ok := classOf[root]
		if !ok {
			c = &class{}
			classOf[root] = c
			classes = append(classes, c)
		}
		c.rules = append(c.rules, i)
		c.weight += len(graph.Leaves(rules[i].Expr))
		c.wild = c.wild || keys[i].Wild
	}

	// Longest-processing-time packing: heaviest class onto the lightest
	// shard. Deterministic: stable sort, ties by first rule index.
	sort.SliceStable(classes, func(a, b int) bool {
		if classes[a].weight != classes[b].weight {
			return classes[a].weight > classes[b].weight
		}
		return classes[a].rules[0] < classes[b].rules[0]
	})
	n := maxShards
	if len(classes) < n {
		n = len(classes)
	}
	if n < 1 {
		n = 1
	}
	p := &Partition{
		ByShard:      make([][]Rule, n),
		readerShards: map[string][]int{},
		groupShards:  map[string][]int{},
	}
	load := make([]int, n)
	shardWild := make([]bool, n)
	for _, c := range classes {
		s := 0
		for i := 1; i < n; i++ {
			if load[i] < load[s] {
				s = i
			}
		}
		load[s] += c.weight
		shardWild[s] = shardWild[s] || c.wild
		for _, ri := range c.rules {
			p.ByShard[s] = append(p.ByShard[s], rules[ri])
			for _, r := range keys[ri].Readers {
				p.readerShards[r] = appendShard(p.readerShards[r], s)
			}
			for _, g := range keys[ri].Groups {
				p.groupShards[g] = appendShard(p.groupShards[g], s)
			}
		}
	}
	for s := range p.ByShard {
		sort.Slice(p.ByShard[s], func(a, b int) bool {
			return p.ByShard[s][a].ID < p.ByShard[s][b].ID
		})
		if shardWild[s] {
			p.broadcast = append(p.broadcast, s)
		}
	}
	return p
}

// NumShards returns the number of shards actually used (≤ the requested
// maximum; never more than the number of key-space classes).
func (p *Partition) NumShards() int { return len(p.ByShard) }

// appendShard adds s to the sorted set dst.
func appendShard(dst []int, s int) []int {
	i := sort.SearchInts(dst, s)
	if i < len(dst) && dst[i] == s {
		return dst
	}
	dst = append(dst, 0)
	copy(dst[i+1:], dst[i:])
	dst[i] = s
	return dst
}

// Router resolves observations to target shards, memoizing per reader
// (reader populations are small and fixed; their group memberships are
// deployment configuration, constant for the engine's lifetime). Not safe
// for concurrent use — the shard engine drives it from its router path.
type Router struct {
	p      *Partition
	groups func(string) []string
	cache  map[string][]int
}

// NewRouter builds a router over the partition using the same groups
// function the partition (and the shard engines) were built with.
func NewRouter(p *Partition, groups func(string) []string) *Router {
	if groups == nil {
		groups = func(r string) []string { return []string{r} }
	}
	return &Router{p: p, groups: groups, cache: map[string][]int{}}
}

// ShardsFor returns the sorted set of shards that must receive an
// observation from the given reader: broadcast shards, shards keyed on the
// reader literal, and shards keyed on any of the reader's groups.
func (r *Router) ShardsFor(reader string) []int {
	if set, ok := r.cache[reader]; ok {
		return set
	}
	set := append([]int(nil), r.p.broadcast...)
	for _, s := range r.p.readerShards[reader] {
		set = appendShard(set, s)
	}
	if len(r.p.groupShards) > 0 {
		for _, g := range r.groups(reader) {
			for _, s := range r.p.groupShards[g] {
				set = appendShard(set, s)
			}
		}
	}
	r.cache[reader] = set
	return set
}

// unionFind is a plain weighted quick-union.
type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p, rank: make([]int, n)}
}

func (u *unionFind) find(i int) int {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]]
		i = u.parent[i]
	}
	return i
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
