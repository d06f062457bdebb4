package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"rcep/internal/core/event"
)

// Write-ahead logging: every physical row mutation (insert/update/delete
// with its row ID) appends one JSON line to a writer. A snapshot plus the
// WAL written since gives point-in-time recovery:
//
//	s.Save(snapshotFile)             // periodically
//	w, _ := store.NewWAL(s, walFile) // journal everything after it
//	...crash...
//	s, _ = store.Load(snapshotFile)
//	store.ReplayWAL(s, walFile)      // roll forward
//
// The journal hook runs under each table's write lock, so WAL order is
// the serialization order of mutations per table.

// walEntry is the serialized form of one mutation.
type walEntry struct {
	Table string        `json:"t"`
	Op    uint8         `json:"o"`
	ID    int64         `json:"id"`
	Row   []event.Value `json:"r,omitempty"`
}

// WAL appends mutations to a writer. Safe for concurrent tables.
type WAL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	n   int
}

// NewWAL installs a write-ahead log on the store: every mutation from now
// on is appended to w. Call Flush before relying on the log's tail.
func NewWAL(s *Store, w io.Writer) (*WAL, error) {
	bw := bufio.NewWriter(w)
	wal := &WAL{w: bw, enc: json.NewEncoder(bw)}
	s.SetJournal(wal.record)
	return wal, nil
}

func (w *WAL) record(m Mutation) {
	w.mu.Lock()
	defer w.mu.Unlock()
	_ = w.enc.Encode(walEntry{Table: m.Table, Op: uint8(m.Op), ID: m.ID, Row: m.Row})
	w.n++
}

// Flush forces buffered entries out.
func (w *WAL) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.w.Flush()
}

// Entries returns how many mutations were journaled.
func (w *WAL) Entries() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// SetJournal installs (or clears, with nil) the mutation hook on every
// current and future table.
func (s *Store) SetJournal(fn func(Mutation)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = fn
	for _, t := range s.tables {
		t.mu.Lock()
		t.journal = fn
		t.mu.Unlock()
	}
}

// ReplayWAL applies a journal produced by NewWAL to a store restored from
// the snapshot the journal was started after.
func ReplayWAL(s *Store, r io.Reader) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	n := 0
	for {
		var e walEntry
		if err := dec.Decode(&e); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("store: wal entry %d: %w", n+1, err)
		}
		n++
		t, err := s.Table(e.Table)
		if err != nil {
			return fmt.Errorf("store: wal entry %d: %w", n, err)
		}
		if err := t.applyMutation(Mutation{
			Table: e.Table, Op: MutationOp(e.Op), ID: e.ID, Row: e.Row,
		}); err != nil {
			return fmt.Errorf("store: wal entry %d: %w", n, err)
		}
	}
}

// applyMutation replays one physical mutation, keeping row IDs and
// indexes consistent. Rows are found by ID, and a delete compacts as
// DeleteWhere does.
func (t *Table) applyMutation(m Mutation) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if (m.Op == OpInsert || m.Op == OpUpdate) && len(m.Row) != len(t.schema) {
		return fmt.Errorf("%s arity %d vs schema %d", m.Op, len(m.Row), len(t.schema))
	}
	at, ok := t.find(m.ID)
	switch m.Op {
	case OpInsert:
		if ok {
			return fmt.Errorf("insert id %d already exists", m.ID)
		}
		t.putLocked(at, m.ID, m.Row)
		if m.ID >= t.nextID {
			t.nextID = m.ID + 1
		}
	case OpUpdate:
		if !ok {
			return fmt.Errorf("update of missing id %d", m.ID)
		}
		t.replaceLocked(at, m.Row)
	case OpDelete:
		if !ok {
			return fmt.Errorf("delete of missing id %d", m.ID)
		}
		t.removeLocked(at)
		t.compactLocked()
	default:
		return fmt.Errorf("unknown mutation op %d", m.Op)
	}
	return nil
}
