package rcep

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/sim"
)

// facadeScenario is one end-to-end workload for the facade equivalence
// suite: observations, rules, and the environment (DDL, procedures,
// metadata) the rules need.
type facadeScenario struct {
	name         string
	observations []event.Observation
	script       string
	groups       func(string) []string
	typeOf       func(string) string
	ddl          []string
	tables       []string // scenario-specific tables to diff (beyond the audit set)
	procNames    []string
}

func hotpathScenarios() []facadeScenario {
	sc, script := shardScenario()
	lib := sim.GenerateLibrary(sim.DefaultLibraryConfig())
	cold := sim.GenerateColdChain(sim.DefaultColdChainConfig())
	bags := sim.GenerateBaggage(sim.DefaultBaggageConfig())
	return []facadeScenario{
		{
			name:         "supply-chain",
			observations: sc.Observations,
			script:       script,
			groups:       sc.ChainGroups(),
			typeOf:       sc.Registry.TypeOf,
			procNames:    []string{"mark_duplicate", "send_alarm"},
		},
		{
			name:         "library",
			observations: lib.Observations,
			script:       sim.LibraryRules,
			typeOf:       lib.Registry.TypeOf,
			ddl:          []string{sim.LibraryLoansDDL},
			procNames:    []string{"checkout_receipt", "theft_alarm"},
		},
		{
			name:         "cold-chain",
			observations: cold.Observations,
			script:       sim.ColdChainRules,
			ddl:          []string{sim.ColdChainDDL},
			tables:       []string{"EXCURSIONS"},
			procNames:    []string{"excursion_alarm", "jump_alarm"},
		},
		{
			name:         "baggage",
			observations: bags.Observations,
			script:       sim.BaggageRules,
			typeOf:       bags.Registry.TypeOf,
			ddl:          []string{sim.BaggageDDL},
			tables:       []string{"MISHANDLED"},
			procNames:    []string{"lost_bag", "stray_bag"},
		},
	}
}

// runFacadeMode replays a scenario through the facade and captures the
// ordered rule firings, ordered procedure calls and the final store.
func runFacadeMode(t *testing.T, fs facadeScenario, shards int) facadeRun {
	t.Helper()
	var run facadeRun
	eng, err := New(Config{
		Rules:  fs.script,
		Groups: fs.groups,
		TypeOf: fs.typeOf,
		Shards: shards,
		OnDetection: func(d Detection) {
			run.firings = append(run.firings, detectionSig(d))
		},
	})
	if err != nil {
		t.Fatalf("New(%s, Shards=%d): %v", fs.name, shards, err)
	}
	for _, ddl := range fs.ddl {
		if _, err := eng.Exec(ddl); err != nil {
			t.Fatalf("Exec(%q): %v", ddl, err)
		}
	}
	for _, name := range fs.procNames {
		name := name
		eng.RegisterProcedure(name, func(ctx ProcContext, args []any) error {
			run.procs = append(run.procs, fmt.Sprintf("%s|%s|%v", name, ctx.RuleID, args))
			return nil
		})
	}
	for _, o := range fs.observations {
		if err := eng.Ingest(o.Reader, o.Object, time.Duration(o.At)); err != nil {
			t.Fatalf("Ingest: %v", err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close(%s): %v", fs.name, err)
	}
	var saved bytes.Buffer
	if err := eng.SaveStore(&saved); err != nil {
		t.Fatalf("SaveStore(%s): %v", fs.name, err)
	}
	run.store = sha256.Sum256(saved.Bytes())
	run.tables = dumpTables(t, eng)
	for _, tbl := range fs.tables {
		_, rows, err := eng.Query("SELECT * FROM " + tbl)
		if err != nil {
			t.Fatalf("SELECT * FROM %s: %v", tbl, err)
		}
		for _, r := range rows {
			run.tables = append(run.tables, fmt.Sprintf("%s|%v", tbl, r))
		}
	}
	run.shards = eng.Shards()
	return run
}

// TestFacadeStoreGolden pins, byte for byte, the store each scenario's
// rule firings leave on one bare engine: the SHA-256 of SaveStore's bytes
// after Close. A change to how actions execute must not move them.
func TestFacadeStoreGolden(t *testing.T) {
	want := map[string]string{
		"supply-chain": "1fff781e183da57802cbd28f59a1d3b943e489d2782df5a4e21a0a7326fa6e17",
		"library":      "2efc267838f250f91f445212fceb2050260c22a783528657bf771e443aeb7ea2",
		"cold-chain":   "12bcedfa2f3eea348250cb507545bbc7f3fab214442e2afc3596320d9844129f",
		"baggage":      "befa14a928383d3301852b4b23eb252e59b1961743386046c71e57ddcc87fd20",
	}
	for _, fs := range hotpathScenarios() {
		if got := fmt.Sprintf("%x", runFacadeMode(t, fs, 0).store); got != want[fs.name] {
			t.Errorf("%s: store SHA-256 %s, want %s", fs.name, got, want[fs.name])
		}
	}
}

// TestCompiledFacadeEquivalence runs every library scenario end to end —
// detection, conditions, SQL actions, procedures, audit tables — at each
// shard width and holds it to the facade over one bare engine (Shards 0):
// the same rule firings, procedure calls and store contents. Sharded
// widths may order simultaneous firings differently from the bare engine,
// but not from one another: delivery order is shard-count invariant.
func TestCompiledFacadeEquivalence(t *testing.T) {
	for _, fs := range hotpathScenarios() {
		fs := fs
		t.Run(fs.name, func(t *testing.T) {
			bare := runFacadeMode(t, fs, 0)
			if len(bare.firings) == 0 {
				t.Fatalf("%s produced no rule firings; equivalence is vacuous", fs.name)
			}
			var sharded *facadeRun
			for _, shards := range []int{0, 1, 2, 4, 8} {
				shards := shards
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					got := runFacadeMode(t, fs, shards)
					compareMultisets(t, "firings", bare.firings, got.firings)
					compareMultisets(t, "procs", bare.procs, got.procs)
					compareMultisets(t, "tables", bare.tables, got.tables)
					if shards < 2 {
						return
					}
					if sharded == nil {
						sharded = &got
						return
					}
					diffOrdered(t, "firings vs shards=2", sharded.firings, got.firings)
					diffOrdered(t, "procs vs shards=2", sharded.procs, got.procs)
				})
			}
		})
	}
}

func diffOrdered(t *testing.T, label string, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: %d entries, reference has %d", label, len(got), len(want))
	}
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Errorf("%s: entry %d = %q, reference %q", label, i, got[i], want[i])
			return
		}
	}
}

// TestCompiledFacadeLibraryLoans checks the library scenario's LOANS
// table, which the standard audit list does not cover: the sharded
// facade must record the bare engine's loans.
func TestCompiledFacadeLibraryLoans(t *testing.T) {
	fs := hotpathScenarios()[1]
	loans := func(shards int) []string {
		eng, err := New(Config{Rules: fs.script, TypeOf: fs.typeOf, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Exec(sim.LibraryLoansDDL); err != nil {
			t.Fatal(err)
		}
		for _, name := range fs.procNames {
			eng.RegisterProcedure(name, func(ProcContext, []any) error { return nil })
		}
		for _, o := range fs.observations {
			if err := eng.Ingest(o.Reader, o.Object, time.Duration(o.At)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		_, rows, err := eng.Query(`SELECT book, patron, tstart, tend FROM LOANS`)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		return out
	}
	bare := loans(0)
	if len(bare) == 0 {
		t.Fatal("library scenario recorded no loans; equivalence is vacuous")
	}
	compareMultisets(t, "LOANS rows", bare, loans(4))
}
