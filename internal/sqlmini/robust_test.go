package sqlmini

import (
	"math/rand"
	"testing"

	"rcep/internal/store"
)

// Pseudo-fuzz for the SQL parser and executor: mutated statements must
// produce errors, never panics.

var seedSQL = []string{
	`SELECT a, COUNT(*) FROM t WHERE x = 'v' AND y IN (1,2) GROUP BY a HAVING COUNT(*) > 1 ORDER BY a DESC LIMIT 5`,
	`BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, 'UC')`,
	`UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC'`,
	`SELECT c.object_epc FROM a c JOIN b l ON c.k = l.k WHERE c.v LIKE 'x%'`,
	`DELETE FROM t WHERE EXISTS (SELECT * FROM t WHERE a = 1)`,
	`CREATE TABLE t (a STRING, b INT, c FLOAT, d TIME, e BOOL)`,
}

func TestSQLParserNeverPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("sql parser panicked: %v", r)
		}
	}()
	rng := rand.New(rand.NewSource(1))
	for _, seed := range seedSQL {
		for i := 0; i < 400; i++ {
			s := mutateSQL(rng, seed)
			_, _ = Parse(s)
		}
	}
}

func TestSQLExecNeverPanicsOnParseable(t *testing.T) {
	// Even statements that parse must fail gracefully at execution
	// against a store that may not have their tables/columns.
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("sql exec panicked: %v", r)
		}
	}()
	s := store.OpenRFID()
	rng := rand.New(rand.NewSource(2))
	for _, seed := range seedSQL {
		for i := 0; i < 200; i++ {
			sql := mutateSQL(rng, seed)
			st, err := Parse(sql)
			if err != nil {
				continue
			}
			_, _ = ExecStmt(s, st, nil)
		}
	}
}

func mutateSQL(rng *rand.Rand, s string) string {
	b := []byte(s)
	switch rng.Intn(4) {
	case 0:
		if len(b) > 0 {
			b = b[:rng.Intn(len(b))]
		}
	case 1:
		if len(b) > 2 {
			i := rng.Intn(len(b) - 1)
			j := i + 1 + rng.Intn(len(b)-i-1)
			b = append(b[:i], b[j:]...)
		}
	case 2:
		for k := 0; k < 2 && len(b) > 0; k++ {
			b[rng.Intn(len(b))] = byte(rng.Intn(96) + 32)
		}
	case 3:
		noise := []string{"SELECT", "WHERE", "(", ")", ",", "''", "JOIN", "GROUP BY", "*"}
		i := rng.Intn(len(b) + 1)
		n := noise[rng.Intn(len(noise))]
		b = append(b[:i:i], append([]byte(" "+n+" "), b[i:]...)...)
	}
	return string(b)
}
