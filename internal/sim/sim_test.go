package sim

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"
	"unsafe"

	"rcep/internal/core/detect"
	"rcep/internal/core/event"
	"rcep/internal/core/graph"
	"rcep/internal/rules"
	"rcep/internal/store"
	"rcep/internal/stream"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultConfig())
	b := Generate(DefaultConfig())
	if len(a.Observations) != len(b.Observations) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Observations), len(b.Observations))
	}
	for i := range a.Observations {
		if a.Observations[i] != b.Observations[i] {
			t.Fatalf("observation %d differs: %v vs %v", i, a.Observations[i], b.Observations[i])
		}
	}
	cfg := DefaultConfig()
	cfg.Seed = 2
	cfg.DupProb = 0.4
	c := Generate(cfg)
	d := Generate(cfg)
	if len(c.Observations) != len(d.Observations) {
		t.Fatalf("seeded duplicate runs differ")
	}
}

func TestGenerateStreamSorted(t *testing.T) {
	sc := Generate(DefaultConfig())
	if !event.Batch(sc.Observations).Sorted() {
		t.Fatalf("stream not sorted")
	}
	if len(sc.Observations) == 0 {
		t.Fatalf("empty stream")
	}
}

func TestGenerateScalesWithConfig(t *testing.T) {
	small := DefaultConfig()
	big := DefaultConfig()
	big.Lines = 4
	big.CasesPerLine = 6
	if len(Generate(big).Observations) <= len(Generate(small).Observations) {
		t.Fatalf("bigger config should produce more observations")
	}
}

func TestRegistryTypes(t *testing.T) {
	r := NewRegistry()
	if got := r.TypeOf(gid(ClassLaptop, 1)); got != "laptop" {
		t.Errorf("laptop type: %q", got)
	}
	if got := r.TypeOf(gid(ClassCase, 2)); got != "case" {
		t.Errorf("case type: %q", got)
	}
	if got := r.TypeOf("not-an-epc"); got != "" {
		t.Errorf("unknown type: %q", got)
	}
}

func TestRuleScriptParses(t *testing.T) {
	src := RuleScript(3, AllFamilies())
	rs, err := rules.ParseScript(src)
	if err != nil {
		t.Fatalf("RuleScript does not parse: %v", err)
	}
	if len(rs.Rules) != 3*len(AllFamilies()) {
		t.Fatalf("rules: %d, want %d", len(rs.Rules), 3*len(AllFamilies()))
	}
}

func TestRuleScriptUnknownFamilyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("unknown family should panic")
		}
	}()
	RuleScript(1, []string{"nope"})
}

// TestEndToEndSupplyChain runs the full stack — simulator → rule language
// → event graph → RCEDA → mini-SQL → RFID store — and checks the store
// contents against the simulator's ground truth.
func TestEndToEndSupplyChain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupProb = 0.3 // exercise the filtering stage
	sc := Generate(cfg)

	rs, err := rules.ParseScript(RuleScript(cfg.Lines, AllFamilies()))
	if err != nil {
		t.Fatal(err)
	}
	st := store.OpenRFID()
	var alarms, dups []string
	procs := rules.Procs{
		"send_alarm": func(_ rules.ActionContext, args []event.Value) error {
			alarms = append(alarms, args[0].Str())
			return nil
		},
		"mark_duplicate": func(_ rules.ActionContext, args []event.Value) error {
			dups = append(dups, args[0].Str())
			return nil
		},
	}
	x := rules.NewExecutor(rs, st, procs, nil)
	b := graph.NewBuilder()
	if err := x.Bind(b); err != nil {
		t.Fatal(err)
	}
	eng, err := detect.New(detect.Config{
		Graph:    b.Finalize(),
		Groups:   sc.ChainGroups(),
		TypeOf:   sc.Registry.TypeOf,
		OnDetect: func(rid int, inst *event.Instance) { x.Dispatch(rid, inst) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 2 pipeline: low-level event filtering ahead of complex
	// event detection, so aggregation sees clean sequences.
	filtered := 0
	dedup := stream.NewDedup(time.Second, eng.Ingest)
	dedup.OnDuplicate = func(event.Observation) { filtered++ }
	for _, o := range sc.Observations {
		if err := dedup.Push(o); err != nil {
			t.Fatalf("Push(%v): %v", o, err)
		}
	}
	eng.Close()
	if errs := x.Errors(); len(errs) > 0 {
		t.Fatalf("executor errors: %v", errs)
	}
	if filtered != sc.Truth.DuplicateReads {
		t.Errorf("filter suppressed %d reads, generator injected %d", filtered, sc.Truth.DuplicateReads)
	}

	// Rule 4: containment aggregation must reconstruct the packing truth.
	for caseEPC, wantItems := range sc.Truth.Containments {
		got := store.ContentsAt(st, caseEPC, event.MaxTime-1)
		if !reflect.DeepEqual(got, wantItems) {
			t.Errorf("containment of %s:\n got %v\nwant %v", caseEPC, got, wantItems)
		}
	}
	contTbl, _ := st.Table(store.TableContainment)
	wantRows := 0
	for _, items := range sc.Truth.Containments {
		wantRows += len(items)
	}
	if contTbl.Len() != wantRows {
		t.Errorf("containment rows: %d, want %d", contTbl.Len(), wantRows)
	}

	// Rule 3: the location history must follow each case's route.
	for caseEPC := range sc.Truth.Containments {
		if loc, ok := store.LocationAt(st, caseEPC, event.MaxTime-1); !ok {
			t.Errorf("case %s has no final location", caseEPC)
		} else if loc == "" {
			t.Errorf("case %s empty location", caseEPC)
		} else if loc[:5] != "store" {
			t.Errorf("case %s final location %q, want a store dock", caseEPC, loc)
		}
	}

	// Rule 5: alarms exactly for the unescorted laptops.
	sort.Strings(alarms)
	wantAlarms := append([]string(nil), sc.Truth.Alarms...)
	sort.Strings(wantAlarms)
	if !reflect.DeepEqual(alarms, wantAlarms) {
		t.Errorf("alarms:\n got %v\nwant %v", alarms, wantAlarms)
	}

	// Rule 2: every item goes infield exactly once per shelf stay.
	invTbl, _ := st.Table(store.TableInventory)
	if invTbl.Len() != wantRows {
		t.Errorf("inventory rows: %d, want %d (one infield per item)", invTbl.Len(), wantRows)
	}

	// On the filtered stream, Rule 1 must be quiet — the filter already
	// suppressed every duplicate.
	if len(dups) != 0 {
		t.Errorf("dup rule fired on filtered stream: %v", dups)
	}
}

// TestDuplicateRuleOnRawStream runs Rule 1 directly on the raw stream and
// checks it detects exactly the injected duplicates.
func TestDuplicateRuleOnRawStream(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupProb = 0.4
	cfg.Seed = 7
	sc := Generate(cfg)
	if sc.Truth.DuplicateReads == 0 {
		t.Fatalf("scenario has no duplicates to detect")
	}

	rs, err := rules.ParseScript(RuleScript(cfg.Lines, []string{"dup"}))
	if err != nil {
		t.Fatal(err)
	}
	var dups int
	x := rules.NewExecutor(rs, nil, rules.Procs{
		"mark_duplicate": func(rules.ActionContext, []event.Value) error {
			dups++
			return nil
		},
	}, nil)
	b := graph.NewBuilder()
	if err := x.Bind(b); err != nil {
		t.Fatal(err)
	}
	eng, err := detect.New(detect.Config{
		Graph:    b.Finalize(),
		Groups:   sc.Deployment.GroupsOf,
		TypeOf:   sc.Registry.TypeOf,
		OnDetect: func(rid int, inst *event.Instance) { x.Dispatch(rid, inst) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sc.Observations {
		if err := eng.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	if errs := x.Errors(); len(errs) > 0 {
		t.Fatalf("executor errors: %v", errs)
	}
	// The dup family only watches the conveyor item readers; count the
	// injected duplicates on those readers.
	wantByReader := 0
	seen := map[[2]string]event.Time{}
	for _, o := range sc.Observations {
		if len(o.Reader) >= 9 && o.Reader[:9] == "pack_item" {
			k := [2]string{o.Reader, o.Object}
			if prev, ok := seen[k]; ok && o.At.Sub(prev) <= 5*time.Second {
				wantByReader++
			}
			seen[k] = o.At
		}
	}
	if dups != wantByReader {
		t.Errorf("dup rule fired %d times, want %d", dups, wantByReader)
	}
}

// TestEndToEndLocationHistoryOrder drills into one case's full route.
func TestEndToEndLocationHistoryOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lines = 1
	cfg.CasesPerLine = 1
	cfg.Badges = 0
	sc := Generate(cfg)

	rs, err := rules.ParseScript(RuleScript(1, []string{"loc"}))
	if err != nil {
		t.Fatal(err)
	}
	st := store.OpenRFID()
	x := rules.NewExecutor(rs, st, nil, nil)
	b := graph.NewBuilder()
	if err := x.Bind(b); err != nil {
		t.Fatal(err)
	}
	eng, err := detect.New(detect.Config{
		Graph:    b.Finalize(),
		Groups:   sc.ChainGroups(),
		TypeOf:   sc.Registry.TypeOf,
		OnDetect: func(rid int, inst *event.Instance) { x.Dispatch(rid, inst) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sc.Observations {
		if err := eng.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()

	var caseEPC string
	for c := range sc.Truth.Containments {
		caseEPC = c
	}
	// History rows for the case, in insertion order.
	loc, _ := st.Table(store.TableLocation)
	var hist []string
	var periods [][2]event.Time
	loc.Scan(func(_ int64, r store.Row) bool {
		if r[0].Str() == caseEPC {
			hist = append(hist, r[1].Str())
			periods = append(periods, [2]event.Time{r[2].Time(), r[3].Time()})
		}
		return true
	})
	want := []string{"dock_W1", "truck_T1", "store_S1"}
	if !reflect.DeepEqual(hist, want) {
		t.Fatalf("location history: %v, want %v", hist, want)
	}
	// Temporal model: consecutive periods chain, last one open (UC).
	for i := 0; i < len(periods)-1; i++ {
		if periods[i][1] != periods[i+1][0] {
			t.Errorf("period %d does not chain: %v -> %v", i, periods[i], periods[i+1])
		}
	}
	if periods[len(periods)-1][1] != store.UC {
		t.Errorf("last period should be UC: %v", periods[len(periods)-1])
	}
}

// TestEndToEndPalletizedNestedContainment: with palletizing on, cases are
// aggregated onto pallets (second containment level), the PALLET moves
// through the chain, and items resolve their location through the nested
// chain item → case → pallet → location.
func TestEndToEndPalletizedNestedContainment(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lines = 1
	cfg.CasesPerLine = 4
	cfg.CasesPerPallet = 2
	cfg.Badges = 0
	sc := Generate(cfg)
	if len(sc.Truth.Pallets) != 2 {
		t.Fatalf("pallets formed: %d, want 2", len(sc.Truth.Pallets))
	}

	rs, err := rules.ParseScript(RuleScript(1, []string{"pack", "palletize", "loc"}))
	if err != nil {
		t.Fatal(err)
	}
	st := store.OpenRFID()
	x := rules.NewExecutor(rs, st, nil, nil)
	b := graph.NewBuilder()
	if err := x.Bind(b); err != nil {
		t.Fatal(err)
	}
	eng, err := detect.New(detect.Config{
		Graph:    b.Finalize(),
		Groups:   sc.ChainGroups(),
		TypeOf:   sc.Registry.TypeOf,
		OnDetect: func(rid int, inst *event.Instance) { x.Dispatch(rid, inst) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sc.Observations {
		if err := eng.Ingest(o); err != nil {
			t.Fatal(err)
		}
	}
	eng.Close()
	if errs := x.Errors(); len(errs) > 0 {
		t.Fatalf("executor errors: %v", errs)
	}

	// Pallet containments reconstructed.
	for pallet, wantCases := range sc.Truth.Pallets {
		got := store.ContentsAt(st, pallet, event.MaxTime-1)
		if !reflect.DeepEqual(got, wantCases) {
			t.Errorf("pallet %s contents:\n got %v\nwant %v", pallet, got, wantCases)
		}
	}
	// An item's effective location resolves through case AND pallet.
	for caseEPC, items := range sc.Truth.Containments {
		loc, ok := store.EffectiveLocationAt(st, items[0], event.MaxTime-1)
		if !ok {
			t.Errorf("item %s (case %s) has no effective location", items[0], caseEPC)
			continue
		}
		if loc[:5] != "store" {
			t.Errorf("item %s ended at %q, want a store dock", items[0], loc)
		}
	}
	// Cases themselves have no own location rows (the pallet moved).
	locTbl, _ := st.Table(store.TableLocation)
	locTbl.Scan(func(_ int64, r store.Row) bool {
		for caseEPC := range sc.Truth.Containments {
			if r[0].Str() == caseEPC {
				t.Errorf("case %s has its own location row; only pallets move", caseEPC)
			}
		}
		return true
	})
}

func TestPalletFlushPartial(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lines = 1
	cfg.CasesPerLine = 3
	cfg.CasesPerPallet = 2
	cfg.Badges = 0
	sc := Generate(cfg)
	if len(sc.Truth.Pallets) != 2 {
		t.Fatalf("pallets: %d, want 2 (one full + one partial)", len(sc.Truth.Pallets))
	}
	sizes := map[int]int{}
	for _, cases := range sc.Truth.Pallets {
		sizes[len(cases)]++
	}
	if sizes[2] != 1 || sizes[1] != 1 {
		t.Errorf("pallet sizes: %v", sizes)
	}
	if !event.Batch(sc.Observations).Sorted() {
		t.Errorf("palletized stream not sorted")
	}
}

func TestScenarioStatsSummary(t *testing.T) {
	// Guard against silent generator regressions: the default scenario's
	// observation count is a deterministic function of the config.
	sc := Generate(DefaultConfig())
	cfg := DefaultConfig()
	perCase := cfg.ItemsPerCase + // conveyor items
		1 + // case read
		3 + // dock, truck, store
		cfg.ShelfCycles*cfg.ItemsPerCase + // shelf cycles
		int(cfg.SellFraction*float64(cfg.ItemsPerCase)) // sold
	perLine := cfg.CasesPerLine*perCase + cfg.Badges // laptops
	// Escorts add one badge observation each; count them from truth.
	want := cfg.Lines*perLine + len(sc.Truth.Escorted)
	if len(sc.Observations) != want {
		t.Fatalf("observations: %d, want %d", len(sc.Observations), want)
	}
	if testing.Verbose() {
		fmt.Printf("scenario: %d observations over %s\n", len(sc.Observations),
			time.Duration(sc.Observations[len(sc.Observations)-1].At))
	}
}

// TestChainGroupsResolvedOnce: every reader in the stream gets its group
// list without allocating, the same slice each call, and the chain readers
// of line N are in g_chain_N beside their own group.
func TestChainGroupsResolvedOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CasesPerPallet = 2
	sc := Generate(cfg)
	groups := sc.ChainGroups()
	for _, o := range sc.Observations {
		gs := groups(o.Reader)
		if again := groups(o.Reader); unsafe.SliceData(again) != unsafe.SliceData(gs) {
			t.Fatalf("groups(%q) returned two slices", o.Reader)
		}
		want := []string{o.Reader}
		for _, c := range []struct {
			reader, group string
			replaces      bool // a configured group replaces the reader's own
		}{
			{"pack_item_L%d", "g_pack_item_%d", true}, {"pack_case_L%d", "g_pack_case_%d", true},
			{"dock_W%d", "g_chain_%d", false}, {"truck_T%d", "g_chain_%d", false}, {"store_S%d", "g_chain_%d", false},
		} {
			var line int
			if n, _ := fmt.Sscanf(o.Reader, c.reader, &line); n == 1 && c.replaces {
				want = []string{fmt.Sprintf(c.group, line)}
			} else if n == 1 {
				want = append(want, fmt.Sprintf(c.group, line))
			}
		}
		if !reflect.DeepEqual(gs, want) {
			t.Fatalf("groups(%q) = %v, want %v", o.Reader, gs, want)
		}
	}
	r := sc.Observations[0].Reader
	if allocs := testing.AllocsPerRun(100, func() { groups(r) }); allocs != 0 {
		t.Fatalf("groups(%q) allocates %v times", r, allocs)
	}
	if gs := groups("no_such_reader"); !reflect.DeepEqual(gs, []string{"no_such_reader"}) {
		t.Fatalf("an undeployed reader has groups %v, want itself", gs)
	}
}
