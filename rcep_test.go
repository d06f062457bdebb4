package rcep

import (
	"strings"
	"testing"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestFacadeAssetMonitoring(t *testing.T) {
	types := map[string]string{"L1": "laptop", "L2": "laptop", "U1": "superuser"}
	var alarms []string
	eng, err := New(Config{
		Rules: `
DEFINE E4 = observation('exit', o4, t4), type(o4) = 'laptop'
DEFINE E5 = observation('exit', o5, t5), type(o5) = 'superuser'
CREATE RULE r5, asset monitoring rule
ON WITHIN(E4 AND NOT E5, 5sec)
IF true
DO send_alarm(o4)
`,
		TypeOf: func(o string) string { return types[o] },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RegisterProcedure("send_alarm", func(_ ProcContext, args []any) error {
		alarms = append(alarms, args[0].(string))
		return nil
	})
	// L1 leaves escorted; L2 leaves alone.
	if err := eng.Ingest("exit", "L1", sec(10)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest("exit", "U1", sec(12)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Ingest("exit", "L2", sec(60)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if len(alarms) != 1 || alarms[0] != "L2" {
		t.Fatalf("alarms: %v", alarms)
	}
	if m := eng.Metrics(); m.Detections != 1 || m.Observations != 3 {
		t.Errorf("metrics: %+v", m)
	}
}

func TestFacadeContainmentAndQuery(t *testing.T) {
	var fs []Detection
	eng, err := New(Config{
		OnDetection: func(d Detection) { fs = append(fs, d) },
		Rules: `
DEFINE E1 = observation('r1', o1, t1)
DEFINE E2 = observation('r2', o2, t2)
CREATE RULE r4, containment rule
ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); E2, 10sec, 20sec)
IF true
DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, 'UC')
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []Observation{
		{"r1", "item1", sec(1.0)},
		{"r1", "item2", sec(1.3)},
		{"r1", "item3", sec(1.6)},
		{"r2", "case1", sec(14)},
	} {
		if err := eng.IngestObservation(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	cols, rows, err := eng.Query(`SELECT object_epc, parent_epc FROM OBJECTCONTAINMENT ORDER BY object_epc`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || len(rows) != 3 {
		t.Fatalf("query: %v %v", cols, rows)
	}
	for i, want := range []string{"item1", "item2", "item3"} {
		if rows[i][0].(string) != want || rows[i][1].(string) != "case1" {
			t.Errorf("row %d: %v", i, rows[i])
		}
	}
	if len(fs) != 1 || fs[0].RuleID != "r4" || fs[0].RuleName != "containment rule" {
		t.Fatalf("firings: %+v", fs)
	}
	if lst, ok := fs[0].Bindings["o1"].([]any); !ok || len(lst) != 3 {
		t.Errorf("o1 binding: %#v", fs[0].Bindings["o1"])
	}
}

func TestFacadeOnDetectionAndConditions(t *testing.T) {
	var seen []Detection
	eng, err := New(Config{
		Rules: `
CREATE RULE hot, hot objects
ON observation(r, o, t)
IF is_hot(o)
DO INSERT INTO OBSERVATION VALUES (r, o, t)
`,
		OnDetection: func(d Detection) { seen = append(seen, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RegisterFunc("is_hot", func(args []any) (any, error) {
		return strings.HasPrefix(args[0].(string), "HOT"), nil
	})
	_ = eng.Ingest("r1", "HOT-1", sec(1))
	_ = eng.Ingest("r1", "cold", sec(2))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0].Bindings["o"].(string) != "HOT-1" {
		t.Fatalf("detections: %+v", seen)
	}
	_, rows, err := eng.Query(`SELECT * FROM OBSERVATION`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("stored observations: %v", rows)
	}
}

func TestFacadeExecAndUC(t *testing.T) {
	eng, err := New(Config{Rules: `
CREATE RULE loc, location change rule
ON observation(r, o, t)
IF true
DO UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC';
   INSERT INTO OBJECTLOCATION VALUES (o, r, t, 'UC')
`})
	if err != nil {
		t.Fatal(err)
	}
	_ = eng.Ingest("dock1", "pallet1", sec(10))
	_ = eng.Ingest("dock2", "pallet1", sec(50))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := eng.Query(`SELECT loc_id, tend FROM OBJECTLOCATION WHERE object_epc = 'pallet1' AND tend = 'UC'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].(string) != "dock2" || rows[0][1] != "UC" {
		t.Fatalf("current location: %v", rows)
	}
	// Exec for seeding.
	n, err := eng.Exec(`INSERT INTO OBJECTLOCATION VALUES ('x', 'depot', 0, 'UC')`)
	if err != nil || n != 1 {
		t.Fatalf("Exec: %d %v", n, err)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := New(Config{Rules: ``}); err == nil {
		t.Errorf("empty script accepted")
	}
	if _, err := New(Config{Rules: `garbage`}); err == nil {
		t.Errorf("garbage script accepted")
	}
	if _, err := New(Config{Rules: `
CREATE RULE x, n ON NOT observation(r,o,t) IF true DO f()`}); err == nil {
		t.Errorf("invalid rule accepted")
	}
	eng, err := New(Config{Rules: `
CREATE RULE x, n ON observation(r,o,t) IF true DO missing_proc(o)`})
	if err != nil {
		t.Fatal(err)
	}
	_ = eng.Ingest("r1", "o1", sec(1))
	if err := eng.Close(); err == nil {
		t.Errorf("missing procedure should surface at Close")
	}
	if len(eng.Errs()) != 1 {
		t.Errorf("Errs: %v", eng.Errs())
	}
	// Out of order.
	eng2, _ := New(Config{Rules: `
CREATE RULE x, n ON observation(r,o,t) IF true DO INSERT INTO OBSERVATION VALUES (r, o, t)`})
	_ = eng2.Ingest("r1", "a", sec(5))
	if err := eng2.Ingest("r1", "b", sec(1)); err == nil {
		t.Errorf("out-of-order accepted")
	}
}

func TestFacadeIngestBatch(t *testing.T) {
	eng, err := New(Config{Rules: `
CREATE RULE r1, seq
ON observation('a', o, t1); observation('b', o, t2)
IF true
DO INSERT INTO ALERTS VALUES ('seq', o, t2)
`})
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order batch: IngestBatch sorts before feeding.
	batch := []Observation{
		{"b", "x", sec(5)},
		{"a", "x", sec(1)},
	}
	if err := eng.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := eng.Query(`SELECT COUNT(*) FROM ALERTS`)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].(int64) != 1 {
		t.Fatalf("batch pairing: %v", rows)
	}
	// The original slice is untouched.
	if batch[0].Reader != "b" {
		t.Errorf("IngestBatch mutated the caller's slice")
	}
}

func TestFacadeTrace(t *testing.T) {
	// Containment (Rule 4) + location changes (Rule 3) combine into a
	// full movement trace for a contained item.
	eng, err := New(Config{Rules: `
DEFINE E1 = observation('pack_items', o1, t1)
DEFINE E2 = observation('pack_case', o2, t2)
CREATE RULE r4, containment rule
ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); E2, 10sec, 20sec)
IF true
DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, 'UC')

DEFINE Chain = observation(r, o, t), group(r) = 'chain'
CREATE RULE r3, location change rule
ON Chain
IF true
DO UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC';
   INSERT INTO OBJECTLOCATION VALUES (o, r, t, 'UC')
`,
		Groups: func(r string) []string {
			if r == "dock" || r == "truck" {
				return []string{r, "chain"}
			}
			return []string{r}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	feed := func(r, o string, s float64) {
		t.Helper()
		if err := eng.Ingest(r, o, sec(s)); err != nil {
			t.Fatal(err)
		}
	}
	feed("pack_items", "item1", 1.0)
	feed("pack_items", "item2", 1.4)
	feed("pack_case", "caseA", 13)
	feed("dock", "caseA", 40)
	feed("truck", "caseA", 80)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	if loc, ok := eng.LocateAt("item1", sec(50)); !ok || loc != "dock" {
		t.Errorf("LocateAt(item1, 50s) = %q %t", loc, ok)
	}
	trace, err := eng.Trace("item1")
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0].Location != "dock" || trace[1].Location != "truck" {
		t.Fatalf("trace: %+v", trace)
	}
	if !trace[1].Open {
		t.Errorf("last stay should be open: %+v", trace[1])
	}
	if none, err := eng.Trace("ghost"); err != nil || none != nil {
		t.Errorf("ghost trace: %v %v", none, err)
	}
}

func TestFacadeStorePersistence(t *testing.T) {
	script := `
CREATE RULE loc, location change rule
ON observation(r, o, t)
IF true
DO UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC';
   INSERT INTO OBJECTLOCATION VALUES (o, r, t, 'UC')
`
	eng1, err := New(Config{Rules: script})
	if err != nil {
		t.Fatal(err)
	}
	_ = eng1.Ingest("dock1", "p1", sec(10))
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}
	var snap strings.Builder
	if err := eng1.SaveStore(&snap); err != nil {
		t.Fatal(err)
	}

	// New session resumes with the old history; a later move closes the
	// first period.
	eng2, err := New(Config{Rules: script, StoreSnapshot: strings.NewReader(snap.String())})
	if err != nil {
		t.Fatal(err)
	}
	_ = eng2.Ingest("dock2", "p1", sec(50))
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := eng2.Query(`SELECT loc_id, tend FROM OBJECTLOCATION WHERE object_epc = 'p1' ORDER BY tstart`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].(string) != "dock1" || rows[1][1] != "UC" {
		t.Fatalf("resumed history: %v", rows)
	}
	// Corrupt snapshot is rejected.
	if _, err := New(Config{Rules: script, StoreSnapshot: strings.NewReader("junk")}); err == nil {
		t.Errorf("corrupt snapshot accepted")
	}
}

func TestFacadeFullCheckpoint(t *testing.T) {
	// An asset-monitoring window opens before the restart and must still
	// fire after it.
	script := `
DEFINE Laptop = observation('exit', o4, t4), type(o4) = 'laptop'
DEFINE Super  = observation('exit', o5, t5), type(o5) = 'superuser'
CREATE RULE r5, asset monitoring rule
ON WITHIN(Laptop AND NOT Super, 5sec)
IF true
DO INSERT INTO ALERTS VALUES ('asset', o4, t4)
`
	types := func(o string) string {
		if strings.HasPrefix(o, "laptop") {
			return "laptop"
		}
		return ""
	}
	eng1, err := New(Config{Rules: script, TypeOf: types})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng1.Ingest("exit", "laptop-1", sec(10)); err != nil {
		t.Fatal(err)
	}
	// Window [10,15] still pending; checkpoint now (no Close!).
	var snap strings.Builder
	if err := eng1.SaveCheckpoint(&snap); err != nil {
		t.Fatal(err)
	}

	eng2, err := New(Config{
		Rules: script, TypeOf: types,
		Checkpoint: strings.NewReader(snap.String()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.AdvanceTo(sec(60)); err != nil {
		t.Fatal(err)
	}
	_, rows, err := eng2.Query(`SELECT object_epc FROM ALERTS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].(string) != "laptop-1" {
		t.Fatalf("pending window lost across restart: %v", rows)
	}

	// Different rules refuse the checkpoint.
	_, err = New(Config{
		Rules:      `CREATE RULE other, o ON observation(r,o,t) IF true DO f()`,
		Checkpoint: strings.NewReader(snap.String()),
	})
	if err == nil {
		t.Fatalf("checkpoint restored onto different rules")
	}
	// Mutual exclusion with StoreSnapshot.
	_, err = New(Config{
		Rules:         script,
		Checkpoint:    strings.NewReader(snap.String()),
		StoreSnapshot: strings.NewReader("{}"),
	})
	if err == nil {
		t.Fatalf("Checkpoint + StoreSnapshot accepted")
	}
}

func TestFacadeRuleToggle(t *testing.T) {
	var fired []string
	eng, err := New(Config{
		Rules: `
CREATE RULE a, rule a ON observation('r1', o, t) IF true DO ping('a')
CREATE RULE b, rule b ON observation('r1', o, t) IF true DO ping('b')
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.RegisterProcedure("ping", func(_ ProcContext, args []any) error {
		fired = append(fired, args[0].(string))
		return nil
	})
	_ = eng.Ingest("r1", "x", sec(1))
	if !eng.SetRuleEnabled("b", false) {
		t.Fatalf("SetRuleEnabled(b) reported missing rule")
	}
	_ = eng.Ingest("r1", "y", sec(2))
	if !eng.SetRuleEnabled("b", true) {
		t.Fatal("re-enable failed")
	}
	_ = eng.Ingest("r1", "z", sec(3))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "a", "a", "b"}
	if len(fired) != len(want) {
		t.Fatalf("fired: %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired: %v, want %v", fired, want)
		}
	}
	if eng.SetRuleEnabled("ghost", false) {
		t.Errorf("unknown rule toggled")
	}
}

func TestFacadeGroupsAndAdvance(t *testing.T) {
	eng, err := New(Config{
		Rules: `
CREATE RULE out, outfield
ON WITHIN(observation('shelf', o, t1); NOT observation('shelf', o, t2), 30sec)
IF true
DO INSERT INTO ALERTS VALUES ('outfield', o, t1)
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = eng.Ingest("shelf", "item1", sec(0))
	if err := eng.AdvanceTo(sec(100)); err != nil {
		t.Fatal(err)
	}
	_, rows, err := eng.Query(`SELECT object_epc FROM ALERTS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].(string) != "item1" {
		t.Fatalf("outfield alert: %v", rows)
	}
}

// TestFacadeRetainsNoFiringLog: the facade reports firings through
// OnDetection only, so a long-running engine does not pin every fired
// instance in an audit log — in single-engine and sharded mode alike.
func TestFacadeRetainsNoFiringLog(t *testing.T) {
	const n = 500
	for _, shards := range []int{0, 4} {
		var fired int
		eng, err := New(Config{
			Rules: `
CREATE RULE r1, every read
ON observation(r, o, t)
IF o != 'skip'
DO INSERT INTO ALERTS VALUES ('read', o, t)
`,
			Shards:      shards,
			OnDetection: func(Detection) { fired++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			obj := "item"
			if i%5 == 0 {
				obj = "skip"
			}
			if err := eng.Ingest("dock", obj, sec(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		if want := n - n/5; fired != want {
			t.Errorf("shards=%d: OnDetection saw %d firings, want %d", shards, fired, want)
		}
		if got := len(eng.exec.Firings()); got != 0 {
			t.Errorf("shards=%d: executor retains %d firing records after %d firings, want 0", shards, got, fired)
		}
	}
}
