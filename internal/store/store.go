// Package store implements the in-memory RFID data store the paper's rules
// write into: a small relational engine with typed columns, hash indexes
// and the temporal "UC" (until-changed) convention of Wang & Liu (VLDB
// 2005) used by OBJECTLOCATION and OBJECTCONTAINMENT.
package store

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

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

// Row is one table row; len(Row) == len(Schema).
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
		rows:    map[int64]Row{},
		indexes: map[int]map[string][]int64{},
		journal: s.journal,
	}
	return nil
}

// DropTable removes a table.
func (s *Store) DropTable(name string) error {
	key := strings.ToLower(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[key]; !ok {
		return fmt.Errorf("store: no such table %s", name)
	}
	delete(s.tables, key)
	return nil
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("store: no such table %s", name)
	}
	return t, nil
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
	mu      sync.RWMutex
	name    string
	schema  Schema
	rows    map[int64]Row
	order   []int64 // insertion order (may contain tombstoned IDs)
	nextID  int64
	indexes map[int]map[string][]int64 // column pos → value key → row IDs

	// matched and updated are UpdateWhere/DeleteWhere scratch, reused
	// under the write lock: the IDs a statement matched and, for an
	// update, their new rows.
	matched []int64
	updated []Row

	// journal, when set, observes every physical mutation under the
	// table lock (see Store.SetJournal / the wal package file).
	journal func(Mutation)
}

// Probe restricts UpdateWhere and DeleteWhere to the rows whose column Col
// equals Val (coerced to the column type), found through Col's hash index
// when it has one. The zero Probe selects every row.
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
	return len(t.rows)
}

// CreateIndex builds (or rebuilds) a hash index on the named column.
func (t *Table) CreateIndex(col string) error {
	pos := t.schema.Index(col)
	if pos < 0 {
		return fmt.Errorf("store: %s: no such column %s", t.name, col)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := map[string][]int64{}
	for id, r := range t.rows {
		k := indexKey(r[pos])
		idx[k] = append(idx[k], id)
	}
	for _, ids := range idx {
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	t.indexes[pos] = idx
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
	_, ok := t.indexes[pos]
	return ok
}

func indexKey(v event.Value) string { return v.String() }

// Insert appends a row, coercing values to the column types.
func (t *Table) Insert(vals []event.Value) error {
	if len(vals) != len(t.schema) {
		return fmt.Errorf("store: %s: got %d values, want %d", t.name, len(vals), len(t.schema))
	}
	row := make(Row, len(vals))
	for i, v := range vals {
		cv, err := Coerce(v, t.schema[i].Type)
		if err != nil {
			return fmt.Errorf("store: %s.%s: %v", t.name, t.schema[i].Name, err)
		}
		row[i] = cv
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.rows[id] = row
	t.order = append(t.order, id)
	for pos, idx := range t.indexes {
		k := indexKey(row[pos])
		idx[k] = append(idx[k], id)
	}
	if t.journal != nil {
		t.journal(Mutation{Table: t.name, Op: OpInsert, ID: id, Row: row.clone()})
	}
	return nil
}

// Scan visits live rows in insertion order until visit returns false.
func (t *Table) Scan(visit func(id int64, r Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, id := range t.order {
		r, ok := t.rows[id]
		if !ok {
			continue
		}
		if !visit(id, r) {
			return
		}
	}
}

// Lookup visits rows whose column equals v, using the hash index when one
// exists and falling back to a scan otherwise. Rows are visited in
// insertion order.
func (t *Table) Lookup(col string, v event.Value, visit func(id int64, r Row) bool) error {
	pos := t.schema.Index(col)
	if pos < 0 {
		return fmt.Errorf("store: %s: no such column %s", t.name, col)
	}
	cv := probeKey(v, t.schema[pos].Type)
	t.mu.RLock()
	if idx, ok := t.indexes[pos]; ok {
		ids := idx[indexKey(cv)]
		// Copy so the visit callback can mutate the table.
		snapshot := append([]int64(nil), ids...)
		t.mu.RUnlock()
		for _, id := range snapshot {
			t.mu.RLock()
			r, ok := t.rows[id]
			t.mu.RUnlock()
			if !ok || !r[pos].Equal(cv) {
				continue
			}
			if !visit(id, r) {
				return nil
			}
		}
		return nil
	}
	t.mu.RUnlock()
	t.Scan(func(id int64, r Row) bool {
		if !r[pos].Equal(cv) {
			return true
		}
		return visit(id, r)
	})
	return nil
}

// Update rewrites every row matching where with the assignments produced
// by set (given the current row); it returns the number of rows updated.
func (t *Table) Update(where func(Row) bool, set func(Row) (Row, error)) (int, error) {
	return t.UpdateWhere(Probe{}, func(r Row) (bool, error) { return where(r), nil }, set)
}

// Delete removes every row matching where and returns the count.
func (t *Table) Delete(where func(Row) bool) int {
	n, _ := t.DeleteWhere(Probe{}, func(r Row) (bool, error) { return where(r), nil })
	return n
}

// UpdateWhere rewrites the rows p selects that where accepts with the
// assignments set produces from a copy of each, and returns their count.
// Rows are rewritten and journaled in insertion order. The statement is
// atomic: if where, set or a column coercion fails, no row changes.
func (t *Table) UpdateWhere(p Probe, where func(Row) (bool, error), set func(Row) (Row, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.matchLocked(p, where); err != nil {
		return 0, err
	}
	defer func() { clear(t.updated); t.updated = t.updated[:0] }()
	for _, id := range t.matched {
		nr, err := set(t.rows[id].clone())
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
	for i, id := range t.matched {
		r, nr := t.rows[id], t.updated[i]
		for pos, idx := range t.indexes {
			if !r[pos].Equal(nr[pos]) {
				removeID(idx, indexKey(r[pos]), id)
				addID(idx, indexKey(nr[pos]), id)
			}
		}
		t.rows[id] = nr
		if t.journal != nil {
			t.journal(Mutation{Table: t.name, Op: OpUpdate, ID: id, Row: nr.clone()})
		}
	}
	return len(t.matched), nil
}

// DeleteWhere removes the rows p selects that where accepts and returns
// their count. Rows are deleted and journaled in insertion order; if where
// fails, no row is deleted.
func (t *Table) DeleteWhere(p Probe, where func(Row) (bool, error)) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.matchLocked(p, where); err != nil {
		return 0, err
	}
	for _, id := range t.matched {
		r := t.rows[id]
		for pos, idx := range t.indexes {
			removeID(idx, indexKey(r[pos]), id)
		}
		delete(t.rows, id)
		if t.journal != nil {
			t.journal(Mutation{Table: t.name, Op: OpDelete, ID: id})
		}
	}
	n := len(t.matched)
	if n > 0 && len(t.rows)*2 < len(t.order) {
		t.compactLocked()
	}
	return n, nil
}

// matchLocked fills t.matched with the IDs of the live rows p selects that
// where accepts, in ascending ID (insertion) order. On a where error
// t.matched is left empty. The caller holds the write lock.
func (t *Table) matchLocked(p Probe, where func(Row) (bool, error)) error {
	t.matched = t.matched[:0]
	candidates, pos := t.order, -1
	var key event.Value
	if p.Col != "" {
		if pos = t.schema.Index(p.Col); pos < 0 {
			return fmt.Errorf("store: %s: no such column %s", t.name, p.Col)
		}
		key = probeKey(p.Val, t.schema[pos].Type)
		if idx, ok := t.indexes[pos]; ok {
			candidates = idx[indexKey(key)]
		}
	}
	for _, id := range candidates {
		r, ok := t.rows[id]
		if !ok || pos >= 0 && !r[pos].Equal(key) {
			continue
		}
		ok, err := where(r)
		if err != nil {
			t.matched = t.matched[:0]
			return err
		}
		if ok {
			t.matched = append(t.matched, id)
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

func (t *Table) compactLocked() {
	live := t.order[:0]
	for _, id := range t.order {
		if _, ok := t.rows[id]; ok {
			live = append(live, id)
		}
	}
	t.order = live
}

// addID inserts id into key's list in ascending order. IDs are assigned in
// insertion order, so an index probe visits rows in the order a scan does,
// even after an update moves a row onto a key holding newer rows.
func addID(idx map[string][]int64, key string, id int64) {
	ids := idx[key]
	i, _ := slices.BinarySearch(ids, id)
	idx[key] = slices.Insert(ids, i, id)
}

func removeID(idx map[string][]int64, key string, id int64) {
	ids := idx[key]
	for i, x := range ids {
		if x == id {
			idx[key] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(idx[key]) == 0 {
		delete(idx, key)
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
