package sqlmini

import (
	"fmt"
	"testing"

	"rcep/internal/core/event"
	"rcep/internal/store"
)

func benchDB(b *testing.B, rows int, indexed bool) *store.Store {
	b.Helper()
	s := store.New()
	if _, err := Exec(s, `CREATE TABLE t (k STRING, v INT, f FLOAT)`, nil); err != nil {
		b.Fatal(err)
	}
	tbl, _ := s.Table("t")
	for i := 0; i < rows; i++ {
		err := tbl.Insert([]event.Value{
			event.StringValue(fmt.Sprintf("k%d", i%100)),
			event.IntValue(int64(i)),
			event.FloatValue(float64(i) / 3),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if indexed {
		if err := tbl.CreateIndex("k"); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkParseSelect(b *testing.B) {
	const q = `SELECT k, COUNT(*) AS n FROM t WHERE v > 10 AND k LIKE 'k%' GROUP BY k HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// probeSQL is query_mix's point query, the one a facade read parses most.
const probeSQL = `SELECT loc_id, tstart, tend FROM OBJECTLOCATION WHERE object_epc = 'urn:epc:id:gid:1.1.000000000042'`

func BenchmarkParseProbe(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(probeSQL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectScan(b *testing.B) {
	s := benchDB(b, 10_000, false)
	stmt, _ := Parse(`SELECT COUNT(*) FROM t WHERE k = 'k42'`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecStmt(s, stmt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectIndexProbe(b *testing.B) {
	s := benchDB(b, 10_000, true)
	stmt, _ := Parse(`SELECT COUNT(*) FROM t WHERE k = 'k42'`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecStmt(s, stmt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInsertWithParams(b *testing.B) {
	s := benchDB(b, 0, false)
	stmt, _ := Parse(`INSERT INTO t VALUES (k, v, 1.5)`)
	params := event.MakeBindings(map[string]event.Value{"k": event.StringValue("x"), "v": event.IntValue(1)})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecStmt(s, stmt, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdateUCPattern(b *testing.B) {
	// Rule 3's UC update against a fixed 12k-row OBJECTLOCATION, the
	// end-of-run size of the actions workload: close one object's open
	// period, then reopen it, so neither the table nor any object's period
	// list grows with b.N.
	const objects = 4000
	s := locationTable(b, objects)
	closeUC := PrepareStmt(mustParse(b, `UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC'`))
	reopen := PrepareStmt(mustParse(b, `UPDATE OBJECTLOCATION SET tend = 'UC' WHERE object_epc = o AND tend = t`))
	params := make([]event.Bindings, objects)
	for i := range params {
		params[i] = event.MakeBindings(map[string]event.Value{"o": locObject(i), "t": event.TimeValue(9)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := params[i%objects]
		for _, st := range []*PreparedStmt{closeUC, reopen} {
			if res, err := st.Exec(s, p); err != nil || res.RowsAffected != 1 {
				b.Fatalf("%v, %v", res, err)
			}
		}
	}
}

// BenchmarkSelectGroupBy is query_mix's GROUP BY: the 12k-row
// OBJECTLOCATION counted per location.
func BenchmarkSelectGroupBy(b *testing.B) {
	s := locationTable(b, 4000)
	stmt := PrepareStmt(mustParse(b, `SELECT loc_id, COUNT(*) AS n FROM OBJECTLOCATION GROUP BY loc_id`))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stmt.Exec(s, nil); err != nil {
			b.Fatal(err)
		}
	}
}
