// Package detect implements RCEDA, the RFID complex event detection
// algorithm of paper §4: graph-driven detection where temporal constraints
// are first-class, non-spontaneous events are completed by pseudo events,
// and constituent instances are paired under the chronicle parameter
// context: the oldest admissible candidate, consumed by one detection.
//
// The engine is single-goroutine: observations must be fed in
// non-decreasing timestamp order through Ingest. Use package stream to
// merge or reorder unruly sources upstream.
package detect

import (
	"sort"

	"rcep/internal/core/event"
)

// keyIndex maps a join projection to one value per key: buffer partitions
// pending instances by it, history indexes a negated child by it
// (DESIGN.md §12). When the join is one variable bound to a string — o or
// r in every paper rule — the (interned) string itself is the key, so a
// new key allocates nothing; any other projection is keyed by
// AppendProject's text in a map of its own, so the two forms never share a
// slot. Deleted keys' values, handed back empty, recycle via free.
type keyIndex[T any] struct {
	vars   []string
	str    map[string]*T // one join variable bound to a string
	text   map[string]*T // every other projection
	keyBuf []byte        // reused projection-key scratch
	free   []*T
}

func newKeyIndex[T any](vars []string) *keyIndex[T] {
	return &keyIndex[T]{vars: vars}
}

// strKey returns the single-string key form of binds, if it applies.
func (k *keyIndex[T]) strKey(binds event.Bindings) (string, bool) {
	if len(k.vars) != 1 {
		return "", false
	}
	v, ok := binds.Get(k.vars[0])
	if !ok || v.Kind() != event.KindString {
		return "", false
	}
	return v.Str(), true
}

// lookup returns the value for binds' projection, creating it when create
// is set (nil otherwise).
func (k *keyIndex[T]) lookup(binds event.Bindings, create bool) *T {
	if s, ok := k.strKey(binds); ok {
		v := k.str[s]
		if v == nil && create {
			if k.str == nil {
				k.str = map[string]*T{}
			}
			v = k.alloc()
			k.str[s] = v
		}
		return v
	}
	k.keyBuf = binds.AppendProject(k.keyBuf[:0], k.vars)
	v := k.text[string(k.keyBuf)]
	if v == nil && create {
		if k.text == nil {
			k.text = map[string]*T{}
		}
		v = k.alloc()
		k.text[string(k.keyBuf)] = v
	}
	return v
}

func (k *keyIndex[T]) alloc() *T {
	if n := len(k.free); n > 0 {
		v := k.free[n-1]
		k.free = k.free[:n-1]
		return v
	}
	return new(T)
}

// drop deletes binds' key and recycles its value, which must be empty.
func (k *keyIndex[T]) drop(binds event.Bindings, v *T) {
	if s, ok := k.strKey(binds); ok {
		delete(k.str, s)
	} else {
		k.keyBuf = binds.AppendProject(k.keyBuf[:0], k.vars)
		delete(k.text, string(k.keyBuf))
	}
	k.free = append(k.free, v)
}

// retain visits every value; those keep reports false for (left empty by
// it) are deleted and recycled.
func (k *keyIndex[T]) retain(keep func(*T) bool) {
	for _, m := range [2]map[string]*T{k.str, k.text} {
		for key, v := range m {
			if !keep(v) {
				delete(m, key)
				k.free = append(k.free, v)
			}
		}
	}
}

// buffer holds pending instances of one side of a binary constructor,
// partitioned by the constructor's join variables so candidate lookups
// touch only binding-compatible instances. Without join variables every
// instance is compatible and one flat partition holds them all.
type buffer struct {
	parts *keyIndex[partition] // nil when there are no join variables
	flat  partition
	size  int

	// cap bounds each partition (0 = unbounded); dropped counts evicted
	// oldest instances.
	cap     int
	dropped *uint64
}

// partition is one join-key bucket of a buffer, in arrival order.
type partition struct {
	items []*event.Instance
}

func newBuffer(joinVars []string) *buffer {
	b := &buffer{}
	if len(joinVars) > 0 {
		b.parts = newKeyIndex[partition](joinVars)
	}
	return b
}

// part returns the partition for binds' join projection, creating it when
// create is set.
func (b *buffer) part(binds event.Bindings, create bool) *partition {
	if b.parts == nil {
		return &b.flat
	}
	return b.parts.lookup(binds, create)
}

// add appends an instance to its partition, evicting the oldest entry
// when the partition cap is exceeded.
func (b *buffer) add(in *event.Instance) {
	b.size++
	p := b.part(in.Binds, true)
	p.items = append(p.items, in)
	if b.cap > 0 && len(p.items) > b.cap {
		p.items[0] = nil
		p.items = p.items[1:]
		b.size--
		if b.dropped != nil {
			*b.dropped++
		}
	}
}

// scan visits the partition compatible with binds in arrival order. The
// visitor returns keep (retain the instance in the buffer) and cont
// (continue scanning). Instances the visitor drops are removed. With join
// variables, only the matching partition is visited; without them every
// instance is binding-compatible by construction. A partition scan empties
// stays in the map until the next purge, keeping this path free of map
// writes.
func (b *buffer) scan(binds event.Bindings, visit func(*event.Instance) (keep, cont bool)) {
	if p := b.part(binds, false); p != nil {
		b.scanSlice(&p.items, visit)
	}
}

func (b *buffer) scanSlice(s *[]*event.Instance, visit func(*event.Instance) (keep, cont bool)) {
	out := (*s)[:0]
	stopped := false
	for _, in := range *s {
		if stopped {
			out = append(out, in)
			continue
		}
		keep, cont := visit(in)
		if keep {
			out = append(out, in)
		} else {
			b.size--
		}
		if !cont {
			stopped = true
		}
	}
	clear((*s)[len(out):])
	*s = out
}

// purge removes every instance for which drop returns true, across all
// partitions, and deletes the partitions left empty — the only place the
// map shrinks. Its caller is the engine's time-based reclaim.
func (b *buffer) purge(drop func(*event.Instance) bool) {
	keep := func(p *partition) bool {
		out := p.items[:0]
		for _, in := range p.items {
			if drop(in) {
				b.size--
			} else {
				out = append(out, in)
			}
		}
		clear(p.items[len(out):])
		p.items = out
		return len(out) > 0
	}
	if b.parts == nil {
		keep(&b.flat)
		return
	}
	b.parts.retain(keep)
}

// len returns the number of buffered instances.
func (b *buffer) len() int { return b.size }

// all returns every buffered instance in arrival (Seq) order; used by
// checkpointing, which re-adds them on restore.
func (b *buffer) all() []*event.Instance {
	out := append([]*event.Instance(nil), b.flat.items...)
	if b.parts != nil {
		b.parts.retain(func(p *partition) bool {
			out = append(out, p.items...)
			return true
		})
	}
	sortInstancesBySeq(out)
	return out
}

func sortInstancesBySeq(s []*event.Instance) {
	sort.Slice(s, func(i, j int) bool { return s[i].Seq < s[j].Seq })
}

// projectBinds restricts binds to the given variables; used to build
// negation-query filters from a positive instance's bindings.
func projectBinds(binds event.Bindings, vars []string) event.Bindings {
	if len(vars) == 0 {
		return nil
	}
	out := make(event.Bindings, 0, len(vars))
	for _, v := range vars {
		if val, ok := binds.Get(v); ok {
			out = out.Set(v, val)
		}
	}
	return out
}

// endList is an End-ordered list of instances, inserted near the tail and
// removed from the front by moving a head; the dead prefix is compacted
// once it outgrows the live part, so removal is amortized O(1).
type endList struct {
	buf  []*event.Instance
	head int
}

func (l *endList) items() []*event.Instance { return l.buf[l.head:] }

func (l *endList) len() int { return len(l.buf) - l.head }

// insert places in after every entry ending no later than it (the tail, in
// practice, since time advances monotonically).
func (l *endList) insert(in *event.Instance) {
	if l.buf == nil {
		l.buf = make([]*event.Instance, 0, 4) // a key's few reads in the window
	}
	i := len(l.buf)
	for i > l.head && l.buf[i-1].End > in.End {
		i--
	}
	l.buf = append(l.buf, nil)
	copy(l.buf[i+1:], l.buf[i:])
	l.buf[i] = in
}

// dropFront removes the first n entries.
func (l *endList) dropFront(n int) {
	clear(l.buf[l.head : l.head+n])
	l.head += n
	if live := l.len(); live <= l.head {
		copy(l.buf, l.buf[l.head:])
		clear(l.buf[live:])
		l.buf, l.head = l.buf[:live], 0
	}
}

// lowerBound returns the index in items of the first entry with End >= a.
func (l *endList) lowerBound(a event.Time) int {
	s := l.items()
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid].End < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// anyIn reports whether an entry ending in [a, b] is compatible with filter.
func (l *endList) anyIn(a, b event.Time, filter event.Bindings) bool {
	s := l.items()
	for _, in := range s[l.lowerBound(a):] {
		if in.End > b {
			return false
		}
		if in.Binds.Compatible(filter) {
			return true
		}
	}
	return false
}

// history is a time-ordered log of a node's occurrences, kept for window
// queries (negation, pulled SEQ+). Entries are ordered by End time.
// Chronicle consumption is tracked per consumer node: a sub-event shared
// by several rules (common sub-graph merging) is detected once but each
// consuming parent claims its own copy, so merging never changes
// detections.
type history struct {
	entries  endList
	consumed map[int]map[*event.Instance]bool // consumer node ID → claimed

	// cap bounds retained entries (0 = unbounded); dropped counts
	// evicted oldest entries.
	cap     int
	dropped *uint64

	// keyed, when set, mirrors entries per join key of a negation
	// consumer so occurs reads one key: each list is an exact subsequence
	// of entries, kept in step by add and dropFront. loose holds entries
	// with a join variable unbound or not a string.
	keyed *keyIndex[endList]
	loose endList
}

func newHistory() *history {
	return &history{consumed: map[int]map[*event.Instance]bool{}}
}

// keyable reports whether binds binds every one of vars to a string, the
// only kind whose Equal is equality of key text.
func keyable(binds event.Bindings, vars []string) bool {
	for _, v := range vars {
		if val, ok := binds.Get(v); !ok || val.Kind() != event.KindString {
			return false
		}
	}
	return true
}

// listOf returns the keyed list an entry belongs in, creating it when
// create is set.
func (h *history) listOf(in *event.Instance, create bool) *endList {
	if !keyable(in.Binds, h.keyed.vars) {
		return &h.loose
	}
	return h.keyed.lookup(in.Binds, create)
}

// add records an occurrence, keeping entries sorted by End. The oldest
// entry is evicted past the cap.
func (h *history) add(in *event.Instance) {
	h.entries.insert(in)
	if h.keyed != nil {
		h.listOf(in, true).insert(in)
	}
	if h.cap > 0 && h.entries.len() > h.cap {
		h.dropFront(1)
		if h.dropped != nil {
			*h.dropped++
		}
	}
}

// dropFront removes the n oldest entries. Each is also the oldest of its
// key, so it leaves the front of its keyed list; a list left empty gives
// up its key.
func (h *history) dropFront(n int) {
	for _, in := range h.entries.items()[:n] {
		for _, m := range h.consumed {
			delete(m, in)
		}
		if h.keyed != nil {
			l := h.listOf(in, false)
			l.dropFront(1)
			if l.len() == 0 && l != &h.loose {
				h.keyed.drop(in.Binds, l)
			}
		}
	}
	h.entries.dropFront(n)
}

// occurs reports whether some entry ending in [a, b] is compatible with
// filter. A filter binding exactly the keyed variables to strings reads
// its key's list and the loose entries; any other filter scans every entry
// in the window.
func (h *history) occurs(a, b event.Time, filter event.Bindings) bool {
	if h.keyed == nil || len(filter) != len(h.keyed.vars) || !keyable(filter, h.keyed.vars) {
		return h.entries.anyIn(a, b, filter)
	}
	if l := h.keyed.lookup(filter, false); l != nil && l.anyIn(a, b, filter) {
		return true
	}
	return h.loose.anyIn(a, b, filter)
}

// inWindow visits entries whose End falls in [a, b] and whose bindings are
// compatible with filter, skipping those consumer has already claimed.
func (h *history) inWindow(a, b event.Time, filter event.Bindings, consumer int, visit func(*event.Instance) bool) {
	claimed := h.consumed[consumer]
	s := h.entries.items()
	for _, in := range s[h.entries.lowerBound(a):] {
		if in.End > b {
			break
		}
		if claimed[in] {
			continue
		}
		if filter != nil && !in.Binds.Compatible(filter) {
			continue
		}
		if !visit(in) {
			return
		}
	}
}

// markConsumed claims an entry for a chronicle consumer node.
func (h *history) markConsumed(consumer int, in *event.Instance) {
	m := h.consumed[consumer]
	if m == nil {
		m = map[*event.Instance]bool{}
		h.consumed[consumer] = m
	}
	m[in] = true
}

// pruneBefore drops entries with End < t.
func (h *history) pruneBefore(t event.Time) {
	if i := h.entries.lowerBound(t); i > 0 {
		h.dropFront(i)
	}
}

// len returns the number of retained entries.
func (h *history) len() int { return h.entries.len() }
