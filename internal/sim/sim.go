// Package sim rebuilds the paper's evaluation substrate (§5): a simulator
// of an RFID-enabled supply chain with packing lines, warehouses,
// shipping, retail stores and point-of-sale, producing deterministic
// seeded observation streams. The original Siemens simulator is
// proprietary; this reconstruction follows the paper's description
// (warehouses, shipping, retail stores and sale to customers) and drives
// the same rule families (Rules 1–5). See DESIGN.md "Substitutions".
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/epc"
	"rcep/internal/reader"
	"rcep/internal/stream"
)

// GID object classes used by the scenario; the epc.Registry maps them to
// the type names the rules use.
const (
	ClassItem      = 1
	ClassCase      = 2
	ClassPallet    = 3
	ClassLaptop    = 4
	ClassSuperuser = 5
	ClassEmployee  = 6
)

// Config parameterizes a supply-chain scenario. The zero value is not
// useful; start from DefaultConfig.
type Config struct {
	Seed int64

	// Lines is the number of parallel packing lines (each with its own
	// conveyor readers); concurrency across lines is what produces the
	// overlapping complex events of paper Fig. 1b.
	Lines        int
	CasesPerLine int
	ItemsPerCase int

	// Conveyor timing (Rule 4 expects items 0.1–1s apart and the case
	// 10–20s after the last item).
	ItemGap time.Duration // between items on the conveyor
	PackGap time.Duration // last item → case read
	CaseGap time.Duration // case read → next case's first item

	// Downstream chain timing.
	StageGap      time.Duration // between chain stages (dock → truck → store)
	ShelfCycles   int           // smart-shelf bulk read cycles per case
	ShelfInterval time.Duration
	SellFraction  float64 // fraction of items sold at POS

	// Read quality.
	DupProb  float64
	DupDelay time.Duration
	MissProb float64

	// Badges adds asset-monitoring traffic at the building exit reader:
	// laptops leaving with or without a superuser badge (Rule 5).
	Badges      int     // number of laptop-exit incidents per line
	BadgedRatio float64 // fraction escorted by a superuser

	// CasesPerPallet, when positive, adds a palletizing station after
	// packing: groups of cases are read in sequence and aggregated onto
	// a pallet (the "palletize" rule family), and the PALLET moves
	// through the downstream chain instead of individual cases —
	// exercising nested containment (item → case → pallet → location).
	CasesPerPallet int
}

// DefaultConfig returns a small, fully featured scenario.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		Lines:         2,
		CasesPerLine:  3,
		ItemsPerCase:  4,
		ItemGap:       300 * time.Millisecond,
		PackGap:       12 * time.Second,
		CaseGap:       25 * time.Second,
		StageGap:      30 * time.Second,
		ShelfCycles:   2,
		ShelfInterval: 30 * time.Second,
		SellFraction:  0.5,
		DupProb:       0,
		DupDelay:      200 * time.Millisecond,
		MissProb:      0,
		Badges:        2,
		BadgedRatio:   0.5,
	}
}

// Truth records the scenario's ground truth for integration tests and
// EXPERIMENTS.md: what a correct rule engine must reconstruct.
type Truth struct {
	Containments   map[string][]string // case EPC → item EPCs, in conveyor order
	CaseRoute      map[string][]string // case EPC → symbolic locations visited, in order
	SoldItems      []string            // item EPCs sold at POS
	Alarms         []string            // laptop EPCs taken out unescorted
	Escorted       []string            // laptop EPCs escorted by a superuser
	DuplicateReads int                 // extra reads injected by DupProb
	Pallets        map[string][]string // pallet EPC → case EPCs (CasesPerPallet > 0)
}

// Scenario is a generated workload: the observation stream plus the
// metadata the engine needs (type registry, reader deployment) and the
// ground truth.
type Scenario struct {
	Observations []event.Observation
	Registry     *epc.Registry
	Deployment   *reader.Deployment
	Truth        Truth

	groups map[string][]string // ChainGroups' answer per deployed reader, read-only
}

// Canonicalize rewrites every observation's reader and object strings to
// their canonical interned instances, in place. Generators build strings
// with fmt.Sprintf per sighting; feeding a scenario through the engine's
// intern table before replay mirrors what the wire and LLRP ingest edges
// do and keeps one string instance per distinct EPC/reader alive.
func (sc *Scenario) Canonicalize(in *event.Interner) {
	for i := range sc.Observations {
		o := &sc.Observations[i]
		o.Reader, o.Object = in.Canon(o.Reader), in.Canon(o.Object)
	}
}

// Registry returns a type registry with the scenario's class mappings.
func NewRegistry() *epc.Registry {
	r := epc.NewRegistry()
	r.MapGIDClass(ClassItem, "item")
	r.MapGIDClass(ClassCase, "case")
	r.MapGIDClass(ClassPallet, "pallet")
	r.MapGIDClass(ClassLaptop, "laptop")
	r.MapGIDClass(ClassSuperuser, "superuser")
	r.MapGIDClass(ClassEmployee, "employee")
	return r
}

// Reader naming scheme, shared with RuleScript.
func packItemReader(line int) string { return fmt.Sprintf("pack_item_L%d", line) }
func packCaseReader(line int) string { return fmt.Sprintf("pack_case_L%d", line) }
func dockReader(line int) string     { return fmt.Sprintf("dock_W%d", line) }
func truckReader(line int) string    { return fmt.Sprintf("truck_T%d", line) }
func storeReader(line int) string    { return fmt.Sprintf("store_S%d", line) }
func shelfReader(line int) string    { return fmt.Sprintf("shelf_S%d", line) }
func posReader(line int) string      { return fmt.Sprintf("pos_S%d", line) }
func exitReader(line int) string     { return fmt.Sprintf("exit_B%d", line) }
func palCaseReader(line int) string  { return fmt.Sprintf("pal_case_L%d", line) }
func palTagReader(line int) string   { return fmt.Sprintf("pal_tag_L%d", line) }

// gid renders a GID EPC hex for the scenario's manager number.
func gid(class, serial uint64) string {
	b, err := epc.GID{Manager: 4711, Class: class, Serial: serial}.Encode()
	if err != nil {
		panic("sim: gid encode: " + err.Error())
	}
	return b.Hex()
}

// Generate builds the scenario deterministically from the config.
func Generate(cfg Config) *Scenario {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc := &Scenario{
		Registry:   NewRegistry(),
		Deployment: reader.NewDeployment(),
		groups:     map[string][]string{},
		Truth: Truth{
			Containments: map[string][]string{},
			CaseRoute:    map[string][]string{},
			Pallets:      map[string][]string{},
		},
	}
	var streams [][]event.Observation
	var serial uint64

	nextSerial := func() uint64 {
		serial++
		return serial
	}
	// counted wraps a read so injected duplicates are tallied in Truth.
	counted := func(obs []event.Observation) []event.Observation {
		if len(obs) > 1 {
			sc.Truth.DuplicateReads += len(obs) - 1
		}
		return obs
	}

	for line := 1; line <= cfg.Lines; line++ {
		rd := func(id, loc, group string) *reader.Reader {
			r := &reader.Reader{
				ID: id, Location: loc,
				DupProb: cfg.DupProb, DupDelay: cfg.DupDelay, MissProb: cfg.MissProb,
			}
			if group != "" {
				r.Groups = []string{group}
			}
			if err := sc.Deployment.Add(r); err != nil {
				panic("sim: " + err.Error())
			}
			sc.groups[id] = sc.Deployment.GroupsOf(id)
			return r
		}
		packItem := rd(packItemReader(line), fmt.Sprintf("factory-%d", line), fmt.Sprintf("g_pack_item_%d", line))
		packCase := rd(packCaseReader(line), fmt.Sprintf("factory-%d", line), fmt.Sprintf("g_pack_case_%d", line))
		dock := rd(dockReader(line), fmt.Sprintf("warehouse-%d", line), "")
		truck := rd(truckReader(line), fmt.Sprintf("truck-%d", line), "")
		storeDock := rd(storeReader(line), fmt.Sprintf("store-%d", line), "")
		shelf := &reader.Shelf{
			Reader:   reader.Reader{ID: shelfReader(line), Location: fmt.Sprintf("store-%d", line)},
			Interval: cfg.ShelfInterval,
		}
		if err := sc.Deployment.Add(&shelf.Reader); err != nil {
			panic("sim: " + err.Error())
		}
		sc.groups[shelf.Reader.ID] = sc.Deployment.GroupsOf(shelf.Reader.ID)
		chain := fmt.Sprintf("g_chain_%d", line)
		for _, r := range []*reader.Reader{dock, truck, storeDock} {
			sc.groups[r.ID] = append(sc.groups[r.ID], chain)
		}
		pos := rd(posReader(line), fmt.Sprintf("store-%d", line), "")
		exit := rd(exitReader(line), fmt.Sprintf("building-%d", line), "")

		var palCase, palTag *reader.Reader
		if cfg.CasesPerPallet > 0 {
			palCase = rd(palCaseReader(line), fmt.Sprintf("factory-%d", line), "")
			palTag = rd(palTagReader(line), fmt.Sprintf("factory-%d", line), "")
		}

		var lineObs []event.Observation
		t := event.Time(0)

		// downstream moves a unit (case or pallet) through the chain and
		// unpacks its items onto the shelf and POS.
		downstream := func(unit string, items []string, from event.Time) {
			stageAt := from
			for _, r := range []*reader.Reader{dock, truck, storeDock} {
				stageAt = stageAt.Add(cfg.StageGap)
				lineObs = append(lineObs, counted(r.Observe(rng, unit, stageAt))...)
			}
			sc.Truth.CaseRoute[unit] = []string{
				sc.Deployment.LocationOf(dock.ID),
				sc.Deployment.LocationOf(truck.ID),
				sc.Deployment.LocationOf(storeDock.ID),
			}

			// Unpacked onto the smart shelf; bulk reads every cycle.
			shelfFrom := stageAt.Add(cfg.StageGap)
			shelfTo := shelfFrom.Add(time.Duration(cfg.ShelfCycles) * cfg.ShelfInterval)
			lineObs = append(lineObs, shelf.Cycles(rng, items, shelfFrom, shelfTo)...)

			// Some items are sold at the POS.
			sellAt := shelfTo.Add(cfg.StageGap)
			sold := 0
			for _, it := range items {
				if float64(sold) < cfg.SellFraction*float64(len(items)) {
					lineObs = append(lineObs, counted(pos.Observe(rng, it, sellAt))...)
					sc.Truth.SoldItems = append(sc.Truth.SoldItems, it)
					sellAt = sellAt.Add(time.Second)
					sold++
				}
			}
		}

		var pendingCases []string
		var pendingItems []string
		palletize := func() {
			if len(pendingCases) == 0 {
				return
			}
			// Cases pass the pallet station in sequence, then the pallet
			// tag is read — the same TSEQ(TSEQ+) shape as case packing.
			at := t.Add(5 * time.Second)
			for i, c := range pendingCases {
				lineObs = append(lineObs, counted(palCase.Observe(rng, c, at))...)
				if i < len(pendingCases)-1 {
					at = at.Add(500 * time.Millisecond)
				}
			}
			at = at.Add(cfg.PackGap)
			palletEPC := gid(ClassPallet, nextSerial())
			lineObs = append(lineObs, counted(palTag.Observe(rng, palletEPC, at))...)
			sc.Truth.Pallets[palletEPC] = pendingCases
			downstream(palletEPC, pendingItems, at)
			pendingCases, pendingItems = nil, nil
			t = at.Add(cfg.CaseGap)
		}

		for c := 0; c < cfg.CasesPerLine; c++ {
			caseEPC := gid(ClassCase, nextSerial())
			var items []string
			// Items on the conveyor.
			for i := 0; i < cfg.ItemsPerCase; i++ {
				itemEPC := gid(ClassItem, nextSerial())
				items = append(items, itemEPC)
				lineObs = append(lineObs, counted(packItem.Observe(rng, itemEPC, t))...)
				if i < cfg.ItemsPerCase-1 {
					t = t.Add(cfg.ItemGap)
				}
			}
			// The case is read PackGap after the last item (inside
			// Rule 4's [10s, 20s] window).
			t = t.Add(cfg.PackGap)
			lineObs = append(lineObs, counted(packCase.Observe(rng, caseEPC, t))...)
			sc.Truth.Containments[caseEPC] = items

			if cfg.CasesPerPallet > 0 {
				pendingCases = append(pendingCases, caseEPC)
				pendingItems = append(pendingItems, items...)
				t = t.Add(cfg.CaseGap)
				if len(pendingCases) == cfg.CasesPerPallet {
					palletize()
				}
				continue
			}
			downstream(caseEPC, items, t)
			t = t.Add(cfg.CaseGap)
		}
		if cfg.CasesPerPallet > 0 {
			palletize() // flush a final partial pallet
		}

		// Asset-monitoring incidents at the building exit.
		exitAt := t.Add(time.Minute)
		for b := 0; b < cfg.Badges; b++ {
			laptop := gid(ClassLaptop, nextSerial())
			lineObs = append(lineObs, counted(exit.Observe(rng, laptop, exitAt))...)
			if rng.Float64() < cfg.BadgedRatio {
				badge := gid(ClassSuperuser, nextSerial())
				lineObs = append(lineObs, counted(exit.Observe(rng, badge, exitAt.Add(2*time.Second)))...)
				sc.Truth.Escorted = append(sc.Truth.Escorted, laptop)
			} else {
				sc.Truth.Alarms = append(sc.Truth.Alarms, laptop)
			}
			exitAt = exitAt.Add(30 * time.Second)
		}

		event.Batch(lineObs).Sort()
		streams = append(streams, lineObs)
	}
	sc.Observations = stream.Merge(streams...)
	return sc
}

// RuleScript generates the paper's rule families for the given number of
// lines, in the rule language. Families (per line):
//
//	dup   — Rule 1 duplicate filtering on the conveyor item reader
//	loc   — Rule 3 location change on the chain readers
//	pack  — Rule 4 containment aggregation (TSEQ over TSEQ+)
//	shelf — Rule 2 infield filtering on the smart shelf
//	asset — Rule 5 negation alarm at the building exit
//
// The returned script declares len(families)×lines rules.
func RuleScript(lines int, families []string) string {
	out := ""
	for line := 1; line <= lines; line++ {
		for _, f := range families {
			switch f {
			case "dup":
				out += fmt.Sprintf(`
CREATE RULE dup_%[1]d, duplicate detection line %[1]d
ON WITHIN(observation('%[2]s', o, t1); observation('%[2]s', o, t2), 5sec)
IF true
DO mark_duplicate(o, t1)
`, line, packItemReader(line))
			case "loc":
				out += fmt.Sprintf(`
DEFINE ChainObs_%[1]d = observation(r, o, t), group(r) = 'g_chain_%[1]d'
CREATE RULE loc_%[1]d, location change line %[1]d
ON ChainObs_%[1]d
IF true
DO UPDATE OBJECTLOCATION SET tend = t WHERE object_epc = o AND tend = 'UC';
   INSERT INTO OBJECTLOCATION VALUES (o, r, t, 'UC')
`, line)
			case "pack":
				out += fmt.Sprintf(`
DEFINE PackItem_%[1]d = observation('%[2]s', o1, t1)
DEFINE PackCase_%[1]d = observation('%[3]s', o2, t2)
CREATE RULE pack_%[1]d, containment line %[1]d
ON TSEQ(TSEQ+(PackItem_%[1]d, 0.1sec, 1sec); PackCase_%[1]d, 10sec, 20sec)
IF true
DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, 'UC')
`, line, packItemReader(line), packCaseReader(line))
			case "shelf":
				out += fmt.Sprintf(`
CREATE RULE shelf_%[1]d, infield line %[1]d
ON WITHIN(NOT observation('%[2]s', o, t1); observation('%[2]s', o, t2), 45sec)
IF true
DO INSERT INTO INVENTORY VALUES ('%[2]s', o, t2, 'UC')
`, line, shelfReader(line))
			case "palletize":
				out += fmt.Sprintf(`
DEFINE PalCase_%[1]d = observation('%[2]s', o1, t1)
DEFINE PalTag_%[1]d = observation('%[3]s', o2, t2)
CREATE RULE palletize_%[1]d, palletizing line %[1]d
ON TSEQ(TSEQ+(PalCase_%[1]d, 0.1sec, 1sec); PalTag_%[1]d, 10sec, 20sec)
IF true
DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, 'UC')
`, line, palCaseReader(line), palTagReader(line))
			case "asset":
				out += fmt.Sprintf(`
DEFINE ExitLaptop_%[1]d = observation('%[2]s', o4, t4), type(o4) = 'laptop'
DEFINE ExitSuper_%[1]d = observation('%[2]s', o5, t5), type(o5) = 'superuser'
CREATE RULE asset_%[1]d, asset monitoring line %[1]d
ON WITHIN(ExitLaptop_%[1]d AND NOT ExitSuper_%[1]d, 5sec)
IF true
DO send_alarm(o4, t4)
`, line, exitReader(line))
			default:
				panic("sim: unknown rule family " + f)
			}
		}
	}
	return out
}

// AllFamilies lists every rule family RuleScript knows.
func AllFamilies() []string { return []string{"dup", "loc", "pack", "shelf", "asset"} }

// ChainGroups returns a group function that extends the deployment's
// groups with per-line "g_chain_N" groups covering the dock, truck and
// store readers (used by the "loc" family). The lists are resolved once,
// by Generate: each call for a deployed reader returns the same slice,
// which callers must not modify. Any other reader is its own group.
func (sc *Scenario) ChainGroups() func(string) []string {
	return func(r string) []string {
		if gs, ok := sc.groups[r]; ok {
			return gs
		}
		return sc.Deployment.GroupsOf(r)
	}
}
