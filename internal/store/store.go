// Package store implements the in-memory RFID data store the paper's rules
// write into: a small relational engine with typed columns, hash indexes
// and the temporal "UC" (until-changed) convention of Wang & Liu (VLDB
// 2005) used by OBJECTLOCATION and OBJECTCONTAINMENT.
package store

import (
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"rcep/internal/core/event"
)

// UC is the "until changed" sentinel: an open-ended temporal upper bound.
// It is stored as event.MaxTime in time columns and rendered as "UC".
const UC = event.MaxTime

// Column describes one table column.
type Column struct {
	Name string
	Type event.Kind
}

// Schema is an ordered list of columns.
type Schema []Column

// Index returns the position of the named column, or -1.
func (s Schema) Index(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Row is one table row; len(Row) == len(Schema). A stored row is
// immutable: an update stores a new row in its place, so a row Scan,
// Lookup or the journal hands out stays valid, and unchanged, after the
// table changes. Callers must not modify it.
type Row []event.Value

// clone copies a row.
func (r Row) clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// Store is a thread-safe collection of tables.
type Store struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	journal func(Mutation) // inherited by tables created later
}

// New returns an empty store.
func New() *Store {
	return &Store{tables: map[string]*Table{}}
}

// CreateTable creates a table with the given schema.
func (s *Store) CreateTable(name string, schema Schema) error {
	if len(schema) == 0 {
		return fmt.Errorf("store: table %s needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range schema {
		k := strings.ToLower(c.Name)
		if seen[k] {
			return fmt.Errorf("store: table %s: duplicate column %s", name, c.Name)
		}
		seen[k] = true
	}
	key := strings.ToLower(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[key]; ok {
		return fmt.Errorf("store: table %s already exists", name)
	}
	s.tables[key] = &Table{
		name:    name,
		schema:  schema,
		journal: s.journal,
	}
	return nil
}

// Table returns the named table. The name is folded to its key on the
// stack, so finding a table allocates nothing.
func (s *Store) Table(name string) (*Table, error) {
	var buf [64]byte
	key := appendLower(buf[:0], name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[string(key)]
	if !ok {
		return nil, fmt.Errorf("store: no such table %s", name)
	}
	return t, nil
}

// appendLower appends strings.ToLower(name) to dst, folding an ASCII
// name byte by byte.
func appendLower(dst []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return append(dst[:len(dst)-i], strings.ToLower(name)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// Tables returns the table names, sorted.
func (s *Store) Tables() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for _, t := range s.tables {
		names = append(names, t.name)
	}
	sort.Strings(names)
	return names
}

// MutationOp identifies a physical row mutation.
type MutationOp uint8

// Physical mutation operations, as recorded by the journal hook.
const (
	OpInsert MutationOp = iota
	OpUpdate
	OpDelete
)

// String implements fmt.Stringer.
func (op MutationOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// Mutation is one physical row change. Row is nil for deletes.
type Mutation struct {
	Table string
	Op    MutationOp
	ID    int64
	Row   Row
}

// Table is a single relation. All methods are safe for concurrent use.
type Table struct {
	mu     sync.RWMutex
	name   string
	schema Schema

	// rows holds the rows in insertion order, nil where one was deleted;
	// ids[at] is the ID of rows[at], so ids ascends. live counts the
	// non-nil rows. A delete compacts both slices once live*2 < len(rows),
	// so len(rows) <= 2*live+1 after every delete.
	rows    []Row
	ids     []int64
	live    int
	nextID  int64
	indexes []*index

	// matched and updated are UpdateWhere/DeleteWhere scratch, reused
	// under the write lock: the positions a statement matched and, for an
	// update, their new rows.
	matched []int
	updated []Row

	// journal, when set, observes every physical mutation under the
	// table lock (see Store.SetJournal / the wal package file).
	journal func(Mutation)
}

// Probe restricts UpdateWhere and DeleteWhere to the rows whose column Col
// equals Val (coerced to the column type), found through Col's hash index
// when it has one and checked before the where function otherwise. The
// zero Probe selects every row.
type Probe struct {
	Col string
	Val event.Value
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// CreateIndex builds (or rebuilds) a hash index on the named column.
func (t *Table) CreateIndex(col string) error {
	pos := t.schema.Index(col)
	if pos < 0 {
		return fmt.Errorf("store: %s: no such column %s", t.name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ix := t.index(pos)
	if ix == nil {
		ix = &index{col: pos, seed: maphash.MakeSeed()}
		t.indexes = append(t.indexes, ix)
	}
	ix.build(t.rows)
	return nil
}

// index returns the hash index on column pos, or nil.
func (t *Table) index(pos int) *index {
	for _, ix := range t.indexes {
		if ix.col == pos {
			return ix
		}
	}
	return nil
}

// HasIndex reports whether the column has a hash index.
func (t *Table) HasIndex(col string) bool {
	pos := t.schema.Index(col)
	if pos < 0 {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.index(pos) != nil
}

// Insert appends vals as a row, coercing them to the column types in
// place. The table takes ownership of vals: the caller must not use the
// slice again.
func (t *Table) Insert(vals []event.Value) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("store: %s: got %d values, want %d", t.name, len(vals), len(t.schema))
	}
	for i, v := range vals {
		cv, err := Coerce(v, t.schema[i].Type)
		if err != nil {
			return fmt.Errorf("store: %s.%s: %v", t.name, t.schema[i].Name, err)
		}
		vals[i] = cv
	}
	row := Row(vals)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.putLocked(len(t.rows), id, row)
	if t.journal != nil {
		t.journal(Mutation{Table: t.name, Op: OpInsert, ID: id, Row: row})
	}
	return nil
}

// Scan visits live rows in insertion order until visit returns false. It
// holds the read lock throughout, so visit must not call into the table.
// Each row is the stored, immutable one.
func (t *Table) Scan(visit func(id int64, r Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for at, r := range t.rows {
		if r != nil && !visit(t.ids[at], r) {
			return
		}
	}
}

// Lookup visits rows whose column equals v, using the hash index when one
// exists and falling back to a scan otherwise. Rows are visited in
// insertion order and are the stored, immutable ones. An index probe
// snapshots the rows that match and visits them without the lock, so
// visit may call into the table; the scan holds the lock as Scan does.
func (t *Table) Lookup(col string, v event.Value, visit func(id int64, r Row) bool) error {
	pos := t.schema.Index(col)
	if pos < 0 {
		return fmt.Errorf("store: %s: no such column %s", t.name, col)
	}
	cv := probeKey(v, t.schema[pos].Type)
	t.mu.RLock()
	ix := t.index(pos)
	if ix == nil {
		t.mu.RUnlock()
		t.Scan(func(id int64, r Row) bool {
			return !r[pos].Equal(cv) || visit(id, r)
		})
		return nil
	}
	type hit struct {
		id  int64
		row Row
	}
	var buf [8]hit
	hits := buf[:0]
	for at := ix.first(cv); at >= 0; at = ix.after(at) {
		if r := t.rows[at]; r[pos].Equal(cv) {
			hits = append(hits, hit{t.ids[at], r})
		}
	}
	t.mu.RUnlock()
	for _, h := range hits {
		if !visit(h.id, h.row) {
			break
		}
	}
	return nil
}

// Update rewrites every row matching where with the assignments produced
// by set (given the current row); it returns the number of rows updated.
func (t *Table) Update(where func(Row) bool, set func(Row) (Row, error)) (int, error) {
	return t.UpdateWhere(Probe{}, func(r Row) (bool, error) { return where(r), nil }, set)
}

// UpdateWhere rewrites the rows p selects that where accepts with the
// assignments set produces from a copy of each, and returns their count.
// Rows are rewritten and journaled in insertion order. The statement is
// atomic: if where, set or a column coercion fails, no row changes. where
// and set run under the write lock and must not call into the table.
func (t *Table) UpdateWhere(p Probe, where func(Row) (bool, error), set func(Row) (Row, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.matchLocked(p, where); err != nil {
		return 0, err
	}
	defer func() { clear(t.updated); t.updated = t.updated[:0] }()
	for _, at := range t.matched {
		nr, err := set(t.rows[at].clone())
		if err != nil {
			return 0, err
		}
		for i := range nr {
			cv, err := Coerce(nr[i], t.schema[i].Type)
			if err != nil {
				return 0, fmt.Errorf("store: %s.%s: %v", t.name, t.schema[i].Name, err)
			}
			nr[i] = cv
		}
		t.updated = append(t.updated, nr)
	}
	for i, at := range t.matched {
		nr := t.updated[i]
		t.replaceLocked(at, nr)
		if t.journal != nil {
			t.journal(Mutation{Table: t.name, Op: OpUpdate, ID: t.ids[at], Row: nr})
		}
	}
	return len(t.matched), nil
}

// DeleteWhere removes the rows p selects that where accepts and returns
// their count. Rows are deleted and journaled in insertion order; if where
// fails, no row is deleted. where runs under the write lock and must not
// call into the table.
func (t *Table) DeleteWhere(p Probe, where func(Row) (bool, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.matchLocked(p, where); err != nil {
		return 0, err
	}
	for _, at := range t.matched {
		t.removeLocked(at)
		if t.journal != nil {
			t.journal(Mutation{Table: t.name, Op: OpDelete, ID: t.ids[at]})
		}
	}
	t.compactLocked()
	return len(t.matched), nil
}

// matchLocked fills t.matched with the positions of the live rows p
// selects that where accepts, in insertion order. A probe on an indexed
// column walks its key's chain; on another column it checks each row's
// value before where. On a where error t.matched is left empty. The
// caller holds the write lock.
func (t *Table) matchLocked(p Probe, where func(Row) (bool, error)) error {
	t.matched = t.matched[:0]
	pos := -1
	var key event.Value
	var ix *index
	if p.Col != "" {
		if pos = t.schema.Index(p.Col); pos < 0 {
			return fmt.Errorf("store: %s: no such column %s", t.name, p.Col)
		}
		key = probeKey(p.Val, t.schema[pos].Type)
		ix = t.index(pos)
	}
	for at := ix.first(key); at >= 0 && at < len(t.rows); at = ix.after(at) {
		r := t.rows[at]
		if r == nil || pos >= 0 && !r[pos].Equal(key) {
			continue
		}
		ok, err := where(r)
		if err != nil {
			t.matched = t.matched[:0]
			return err
		}
		if ok {
			t.matched = append(t.matched, at)
		}
	}
	return nil
}

// probeKey is the value an equality probe on a column of the given kind
// compares with: v coerced to the column type, or v itself when it does
// not coerce.
func probeKey(v event.Value, kind event.Kind) event.Value {
	if cv, err := Coerce(v, kind); err == nil {
		return cv
	}
	return v
}

// putLocked stores row under id at position at, the position that keeps
// ids ascending: the end for a new ID, a deleted row's slot for its own
// ID, or between older and newer IDs for a replayed one.
func (t *Table) putLocked(at int, id int64, row Row) {
	t.live++
	switch {
	case at == len(t.rows):
		t.rows = append(t.rows, row)
		t.ids = append(t.ids, id)
		for _, ix := range t.indexes {
			ix.next = append(ix.next, -1)
		}
	case t.ids[at] == id:
		t.rows[at] = row
	default:
		t.rows = slices.Insert(t.rows, at, row)
		t.ids = slices.Insert(t.ids, at, id)
		for _, ix := range t.indexes {
			ix.build(t.rows) // every later position moved up by one
		}
		return
	}
	for _, ix := range t.indexes {
		ix.add(at, row[ix.col])
	}
}

// replaceLocked stores nr in place of the row at position at, relinking it
// only when its chain key changes: cells that are not Equal may share a
// chain, and then the row stays where it is.
func (t *Table) replaceLocked(at int, nr Row) {
	r := t.rows[at]
	for _, ix := range t.indexes {
		if ix.key(r[ix.col]) != ix.key(nr[ix.col]) {
			ix.remove(at, r[ix.col])
			ix.add(at, nr[ix.col])
		}
	}
	t.rows[at] = nr
}

// removeLocked deletes the row at position at, leaving its slot nil until
// compactLocked drops it.
func (t *Table) removeLocked(at int) {
	r := t.rows[at]
	for _, ix := range t.indexes {
		ix.remove(at, r[ix.col])
	}
	t.rows[at] = nil
	t.live--
}

// find returns the position of the live row with the given ID.
func (t *Table) find(id int64) (int, bool) {
	at, ok := slices.BinarySearch(t.ids, id)
	return at, ok && t.rows[at] != nil
}

// compactLocked drops the deleted slots once they outnumber the live
// rows, into slices sized to the live rows, and rebuilds the indexes over
// the new positions. IDs do not change.
func (t *Table) compactLocked() {
	if t.live*2 >= len(t.rows) {
		return
	}
	rows, ids := make([]Row, 0, t.live), make([]int64, 0, t.live)
	for at, r := range t.rows {
		if r != nil {
			rows = append(rows, r)
			ids = append(ids, t.ids[at])
		}
	}
	t.rows, t.ids = rows, ids
	for _, ix := range t.indexes {
		ix.build(t.rows)
	}
}

// index is a hash index on one column. The live positions whose cells
// share a chain key form a chain in ascending position: heads holds each
// chain's first and last position and next[at] the position after at on
// its chain, or -1; len(next) == len(rows). Neither holds a pointer, so
// the collector does not scan them. Values that are not Equal may share a
// chain, so a probe checks each position it visits with Equal.
type index struct {
	col   int
	seed  maphash.Seed
	heads map[uint64]chain
	next  []int32
}

type chain struct{ head, tail int32 }

// key is v's chain key, the same for any two values of one kind that are
// Equal: a string's hash, an int's or a time's word, a float's bits with
// -0 folded to 0 and every NaN to one NaN, a bool's 0 or 1, and 0 for null.
func (ix *index) key(v event.Value) uint64 {
	switch v.Kind() {
	case event.KindString:
		return maphash.String(ix.seed, v.Str())
	case event.KindInt:
		return uint64(v.Int())
	case event.KindTime:
		return uint64(v.Time())
	case event.KindFloat:
		switch f := v.Float(); {
		case math.IsNaN(f):
			return math.Float64bits(math.NaN())
		case f != 0:
			return math.Float64bits(f)
		}
	case event.KindBool:
		if v.Bool() {
			return 1
		}
	}
	return 0
}

// build indexes rows afresh, in slices sized to them.
func (ix *index) build(rows []Row) {
	ix.heads = make(map[uint64]chain)
	ix.next = make([]int32, len(rows))
	for at, r := range rows {
		if r != nil {
			ix.add(at, r[ix.col])
		}
	}
}

// first returns the first position on v's chain, or -1. A nil index
// stands for a scan, which starts at position 0.
func (ix *index) first(v event.Value) int {
	if ix == nil {
		return 0
	}
	if c, ok := ix.heads[ix.key(v)]; ok {
		return int(c.head)
	}
	return -1
}

// after returns the position after at: on at's chain, or, for a nil
// index, at+1.
func (ix *index) after(at int) int {
	if ix == nil {
		return at + 1
	}
	return int(ix.next[at])
}

// add links position at into v's chain in ascending order, so a probe
// visits rows in the order a scan does, even after an update moves a row
// onto a key holding newer rows. A new row's position, the largest, links
// at the tail without a walk. link points at the head or next entry that
// will hold at.
func (ix *index) add(at int, v event.Value) {
	k, a := ix.key(v), int32(at)
	c, ok := ix.heads[k]
	link := &c.head
	switch {
	case !ok:
		c = chain{-1, a}
	case a > c.tail:
		link, c.tail = &ix.next[c.tail], a
	}
	for *link >= 0 && *link < a {
		link = &ix.next[*link]
	}
	ix.next[a], *link = *link, a
	ix.heads[k] = c
}

// remove unlinks position at from v's chain, dropping the chain once it
// is empty.
func (ix *index) remove(at int, v event.Value) {
	k, a := ix.key(v), int32(at)
	c := ix.heads[k]
	link, prev := &c.head, int32(-1)
	for *link != a {
		prev, link = *link, &ix.next[*link]
	}
	*link = ix.next[a]
	if c.tail == a {
		c.tail = prev
	}
	if c.head < 0 {
		delete(ix.heads, k)
	} else {
		ix.heads[k] = c
	}
}

// Coerce converts v to the column kind, allowing null everywhere, numeric
// widening, string "UC" for open-ended times, and integer nanoseconds for
// time columns.
func Coerce(v event.Value, kind event.Kind) (event.Value, error) {
	if v.IsNull() || v.Kind() == kind {
		return v, nil
	}
	switch kind {
	case event.KindString:
		return event.StringValue(Format(v)), nil
	case event.KindInt:
		switch v.Kind() {
		case event.KindFloat:
			return event.IntValue(v.Int()), nil
		case event.KindTime:
			return event.IntValue(int64(v.Time())), nil
		}
	case event.KindFloat:
		if v.Kind() == event.KindInt {
			return event.FloatValue(v.Float()), nil
		}
	case event.KindTime:
		switch v.Kind() {
		case event.KindInt:
			return event.TimeValue(event.Time(v.Int())), nil
		case event.KindString:
			if v.Str() == "UC" {
				return event.TimeValue(UC), nil
			}
		}
	case event.KindBool:
		if v.Kind() == event.KindString {
			switch strings.ToLower(v.Str()) {
			case "true":
				return event.BoolValue(true), nil
			case "false":
				return event.BoolValue(false), nil
			}
		}
	}
	return event.Null, fmt.Errorf("cannot store %s value %s in %s column", v.Kind(), v, kind)
}

// Format renders a value for display, mapping the UC sentinel back to "UC".
func Format(v event.Value) string {
	if v.Kind() == event.KindTime && v.Time() == UC {
		return "UC"
	}
	return v.String()
}
