package rcep

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"rcep/internal/sim"
)

// shardScenario builds a 3-line supply-chain workload exercising every
// rule family (literal readers, group-keyed chain readers, negation,
// TSEQ+ aggregation).
func shardScenario() (*sim.Scenario, string) {
	cfg := sim.DefaultConfig()
	cfg.Lines = 3
	cfg.CasesPerLine = 2
	cfg.DupProb = 0.05
	sc := sim.Generate(cfg)
	return sc, sim.RuleScript(cfg.Lines, sim.AllFamilies())
}

func detectionSig(d Detection) string {
	binds := d.Bindings()
	keys := make([]string, 0, len(binds))
	for k := range binds {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%s", d.RuleID, d.Begin, d.End)
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%v", k, binds[k])
	}
	return b.String()
}

var shardAuditTables = []string{"OBJECTLOCATION", "OBJECTCONTAINMENT", "INVENTORY", "ALERTS"}

// dumpTables renders the audit tables' rows as sorted strings.
func dumpTables(t *testing.T, eng *Engine) []string {
	t.Helper()
	var out []string
	for _, tbl := range shardAuditTables {
		_, rows, err := eng.Query("SELECT * FROM " + tbl)
		if err != nil {
			t.Fatalf("SELECT * FROM %s: %v", tbl, err)
		}
		for _, r := range rows {
			out = append(out, fmt.Sprintf("%s|%v", tbl, r))
		}
	}
	sort.Strings(out)
	return out
}

type facadeRun struct {
	firings []string
	tables  []string
	procs   []string
	shards  int
	store   [32]byte // SHA-256 of SaveStore after Close (runFacadeMode)
}

// runFacade replays the scenario through an Engine with the given shard
// setting and captures everything observable: rule firings, proc calls and
// the audit tables.
func runFacade(t *testing.T, sc *sim.Scenario, script string, shards int) facadeRun {
	t.Helper()
	var run facadeRun
	eng, err := New(Config{
		Rules:  script,
		Groups: sc.ChainGroups(),
		TypeOf: sc.Registry.TypeOf,
		Shards: shards,
		OnDetection: func(d Detection) {
			run.firings = append(run.firings, detectionSig(d))
		},
	})
	if err != nil {
		t.Fatalf("New(Shards=%d): %v", shards, err)
	}
	record := func(name string) Proc {
		return func(ctx ProcContext, args []any) error {
			run.procs = append(run.procs, fmt.Sprintf("%s|%s|%v", name, ctx.RuleID, args))
			return nil
		}
	}
	eng.RegisterProcedure("mark_duplicate", record("mark_duplicate"))
	eng.RegisterProcedure("send_alarm", record("send_alarm"))
	for _, o := range sc.Observations {
		if err := eng.Ingest(o.Reader, o.Object, time.Duration(o.At)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if err := eng.Flush(); err != nil {
		t.Fatalf("Flush(Shards=%d): %v", shards, err)
	}
	run.tables = dumpTables(t, eng)
	run.shards = eng.Shards()
	if err := eng.Close(); err != nil {
		t.Fatalf("Close(Shards=%d): %v", shards, err)
	}
	return run
}

// TestShardedFacadeEquivalence: the sharded facade produces exactly the
// single engine's rule firings, proc calls and data-store contents.
func TestShardedFacadeEquivalence(t *testing.T) {
	sc, script := shardScenario()
	single := runFacade(t, sc, script, 0)
	if len(single.firings) == 0 {
		t.Fatalf("scenario produced no rule firings; workload is vacuous")
	}
	for _, n := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			got := runFacade(t, sc, script, n)
			if n > 1 && got.shards < 2 {
				t.Errorf("Shards() = %d, expected a real partition", got.shards)
			}
			compareMultisets(t, "firings", single.firings, got.firings)
			compareMultisets(t, "procs", single.procs, got.procs)
			compareMultisets(t, "tables", single.tables, got.tables)
		})
	}
}

func compareMultisets(t *testing.T, label string, want, got []string) {
	t.Helper()
	w := append([]string(nil), want...)
	g := append([]string(nil), got...)
	sort.Strings(w)
	sort.Strings(g)
	if len(w) != len(g) {
		t.Errorf("%s: %d entries, single engine has %d", label, len(g), len(w))
	}
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			t.Errorf("%s: entry %d = %q, single engine %q", label, i, g[i], w[i])
			return
		}
	}
}

// TestShardedCheckpointRoundTrip: checkpoint a sharded engine mid-stream,
// restore into a new sharded engine, finish the stream and require the
// same final store as an uninterrupted sharded run.
func TestShardedCheckpointRoundTrip(t *testing.T) {
	sc, script := shardScenario()
	full := runFacade(t, sc, script, 4)

	newEng := func(shards int, ck *bytes.Buffer) (*Engine, error) {
		cfg := Config{
			Rules:  script,
			Groups: sc.ChainGroups(),
			TypeOf: sc.Registry.TypeOf,
			Shards: shards,
		}
		if ck != nil {
			cfg.Checkpoint = bytes.NewReader(ck.Bytes())
		}
		eng, err := New(cfg)
		if err != nil {
			return nil, err
		}
		noop := func(ProcContext, []any) error { return nil }
		eng.RegisterProcedure("mark_duplicate", noop)
		eng.RegisterProcedure("send_alarm", noop)
		return eng, nil
	}

	first, err := newEng(4, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cut := len(sc.Observations) / 2
	for _, o := range sc.Observations[:cut] {
		if err := first.Ingest(o.Reader, o.Object, time.Duration(o.At)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	var ck bytes.Buffer
	if err := first.SaveCheckpoint(&ck); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	first.Close()

	// A different shard count cannot adopt the checkpoint.
	if _, err := newEng(2, &ck); err == nil || !strings.Contains(err.Error(), "shards") {
		t.Fatalf("restore into Shards=2 engine: err = %v, want shard-count mismatch", err)
	}

	second, err := newEng(4, &ck)
	if err != nil {
		t.Fatalf("New(Checkpoint): %v", err)
	}
	for _, o := range sc.Observations[cut:] {
		if err := second.Ingest(o.Reader, o.Object, time.Duration(o.At)); err != nil {
			t.Fatalf("Ingest after restore: %v", err)
		}
	}
	got := dumpTables(t, second)
	if err := second.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	compareMultisets(t, "restored tables", full.tables, got)
}

// TestShardedSingleCheckpointGuard: a single-engine checkpoint cannot be
// restored into a sharded engine, and vice versa.
func TestShardedSingleCheckpointGuard(t *testing.T) {
	sc, script := shardScenario()
	mk := func(shards int) *Engine {
		eng, err := New(Config{
			Rules:  script,
			Groups: sc.ChainGroups(),
			TypeOf: sc.Registry.TypeOf,
			Shards: shards,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		noop := func(ProcContext, []any) error { return nil }
		eng.RegisterProcedure("mark_duplicate", noop)
		eng.RegisterProcedure("send_alarm", noop)
		return eng
	}
	single := mk(0)
	var singleCk bytes.Buffer
	if err := single.SaveCheckpoint(&singleCk); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	single.Close()
	sharded := mk(4)
	var shardedCk bytes.Buffer
	if err := sharded.SaveCheckpoint(&shardedCk); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	sharded.Close()

	if _, err := New(Config{
		Rules: script, Groups: sc.ChainGroups(), TypeOf: sc.Registry.TypeOf,
		Shards: 4, Checkpoint: bytes.NewReader(singleCk.Bytes()),
	}); err == nil {
		t.Errorf("sharded engine accepted a single-engine checkpoint")
	}
	if _, err := New(Config{
		Rules: script, Groups: sc.ChainGroups(), TypeOf: sc.Registry.TypeOf,
		Checkpoint: bytes.NewReader(shardedCk.Bytes()),
	}); err == nil {
		t.Errorf("single engine accepted a sharded checkpoint")
	}
}

// TestShardedSameInstantAdvance: an explicit advance to the instant the
// engine is already at fires the pseudo events due there, at every width,
// so an observation arriving at that instant afterwards cannot cancel
// them (paper §4: pseudo events share the observation queue). The second
// rule puts the negation rule's readers in a shard of their own.
func TestShardedSameInstantAdvance(t *testing.T) {
	const script = `
DEFINE A = observation('r1', o, t1)
DEFINE B = observation('r2', o, t2)
CREATE RULE neg, window closes unseen
ON WITHIN(A AND NOT B, 5sec)
IF true
DO INSERT INTO ALERTS VALUES ('neg', o, t1)
CREATE RULE other, second key space
ON observation('r3', o3, t3)
IF true
DO INSERT INTO ALERTS VALUES ('other', o3, t3)
`
	for _, shards := range []int{0, 1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var got []string
			eng, err := New(Config{Rules: script, Shards: shards, OnDetection: func(d Detection) {
				got = append(got, detectionSig(d))
			}})
			if err != nil {
				t.Fatal(err)
			}
			if shards > 1 && eng.Shards() < 2 {
				t.Fatalf("Shards() = %d, want a real partition", eng.Shards())
			}
			steps := []func() error{
				func() error { return eng.Ingest("r1", "o1", 0) },
				func() error { return eng.Ingest("r2", "other", 5*time.Second) },
				func() error { return eng.AdvanceTo(5 * time.Second) },
				func() error { return eng.Ingest("r2", "o1", 5*time.Second) },
			}
			for i, step := range steps {
				if err := step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			want := []string{"neg|0s|5s|o=o1|t1=0s"}
			if !slices.Equal(got, want) {
				t.Fatalf("detections %q, want %q", got, want)
			}
		})
	}
}
