package store

import (
	"encoding/json"
	"fmt"
	"io"

	"rcep/internal/core/event"
)

// Snapshot persistence: the whole store serializes to a single JSON
// document so an RFID data store can survive process restarts (the
// paper's store "preserves the history of the movement and behaviors of
// objects" — history should not vanish with the process).

type storeJSON struct {
	Tables []tableJSON `json:"tables"`
}

type tableJSON struct {
	Name    string       `json:"name"`
	Columns []columnJSON `json:"columns"`
	Indexes []string     `json:"indexes,omitempty"`
	Rows    []Row        `json:"rows"` // cells in event.Value's JSON codec
}

type columnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

func kindFromName(s string) (event.Kind, error) {
	for k := event.KindNull; k <= event.KindList; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("store: unknown column type %q", s)
}

// Save writes the whole store (schemas, rows in insertion order, index
// definitions) as JSON.
func (s *Store) Save(w io.Writer) error {
	var doc storeJSON
	for _, name := range s.Tables() {
		t, err := s.Table(name)
		if err != nil {
			return err
		}
		tj := tableJSON{Name: t.Name()}
		for _, c := range t.Schema() {
			tj.Columns = append(tj.Columns, columnJSON{Name: c.Name, Type: c.Type.String()})
			if t.HasIndex(c.Name) {
				tj.Indexes = append(tj.Indexes, c.Name)
			}
		}
		t.Scan(func(_ int64, r Row) bool {
			tj.Rows = append(tj.Rows, r) // stored rows are immutable
			return true
		})
		doc.Tables = append(doc.Tables, tj)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// Load reconstructs a store from a Save snapshot.
func Load(r io.Reader) (*Store, error) {
	var doc storeJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("store: load: %w", err)
	}
	s := New()
	for _, tj := range doc.Tables {
		var schema Schema
		for _, c := range tj.Columns {
			k, err := kindFromName(c.Type)
			if err != nil {
				return nil, err
			}
			schema = append(schema, Column{Name: c.Name, Type: k})
		}
		if err := s.CreateTable(tj.Name, schema); err != nil {
			return nil, err
		}
		t, err := s.Table(tj.Name)
		if err != nil {
			return nil, err
		}
		for ri, row := range tj.Rows {
			if err := t.Insert(row); err != nil {
				return nil, fmt.Errorf("store: load %s row %d: %w", tj.Name, ri, err)
			}
		}
		for _, col := range tj.Indexes {
			if err := t.CreateIndex(col); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}
