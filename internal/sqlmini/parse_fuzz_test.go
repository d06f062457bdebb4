package sqlmini

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rcep/internal/core/event"
)

// FuzzParseSQL: any statement that parses formats to text that parses to
// an equal statement. Run with `go test -fuzz FuzzParseSQL`; the seeds run
// as part of the normal suite.
func FuzzParseSQL(f *testing.F) {
	for _, seed := range []string{
		probeSQL,
		`CREATE TABLE t (a STRING, b INT, c FLOAT, d BOOL, e TIME)`,
		`INSERT INTO t VALUES ('x', 1, 2.5, true, 7)`,
		`INSERT INTO t (a, b) VALUES (o, n + 1)`,
		`BULK INSERT INTO t VALUES (o1, o2, t2, 'UC')`,
		`UPDATE t SET a = 'y', b = b + 1 WHERE a = o AND b != 3`,
		`DELETE FROM t WHERE a LIKE 'x%' OR b IN (1, 2, 3)`,
		`DELETE FROM t WHERE a NOT IN (SELECT a FROM t WHERE b IS NOT NULL)`,
		`SELECT DISTINCT a, COUNT(*) AS n FROM t AS x JOIN u AS y ON x.a = y.k WHERE NOT EXISTS (SELECT * FROM t WHERE b = 9) GROUP BY a HAVING COUNT(*) > 1 ORDER BY n DESC, a LIMIT 5`,
		`SELECT * FROM t WHERE a IS NULL AND -b < 0`,
		`EXPLAIN SELECT * FROM t WHERE a = 'v'`,
		`SELECT a || 'it''s', -(-b), NOT NOT c, x % 2 * 3 / 4 - 5 FROM t INNER JOIN u ON t.a = u.a WHERE a <> 'UC';`,
		`SELECT loc_id FROM OBJECTLOCATION WHERE tend = 'UC' AND tstart <= 1.5 ORDER BY tstart ASC`,
		`UPDATE A SET A=0WHERE 00AND 0.`,                      // a float that prints as an integer
		`SELECT - -b, -(-1), 1000000000000000000000.5 FROM t`, // "--" opens a comment
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		text := FormatStmt(st)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("%q formats to %q, which does not parse: %v", src, text, err)
		}
		if got, want := treeOf(again), treeOf(st); got != want {
			t.Fatalf("%q formats to %q, which parses to another statement:\n%s\nwant\n%s", src, text, got, want)
		}
	})
}

// treeOf renders a statement tree with the type of every node. A value
// renders as its JSON, which tags its kind: reflect.DeepEqual would
// compare the addresses of string payloads.
func treeOf(x any) string {
	var sb strings.Builder
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch {
		case v.Type() == reflect.TypeOf(event.Value{}):
			b, err := json.Marshal(v.Interface())
			fmt.Fprintf(&sb, "%s%v", b, err)
		case v.Kind() == reflect.Interface || v.Kind() == reflect.Pointer:
			if v.IsNil() {
				sb.WriteString("nil")
				return
			}
			if v.Kind() == reflect.Interface {
				sb.WriteString(v.Elem().Type().String())
			}
			walk(v.Elem())
		case v.Kind() == reflect.Struct:
			sb.WriteByte('{')
			for i := range v.NumField() {
				sb.WriteString(v.Type().Field(i).Name + ":")
				walk(v.Field(i))
				sb.WriteByte(' ')
			}
			sb.WriteByte('}')
		case v.Kind() == reflect.Slice:
			sb.WriteByte('[')
			for i := range v.Len() {
				walk(v.Index(i))
				sb.WriteByte(' ')
			}
			sb.WriteByte(']')
		default:
			fmt.Fprintf(&sb, "%#v", v.Interface())
		}
	}
	walk(reflect.ValueOf(&x).Elem())
	return sb.String()
}
