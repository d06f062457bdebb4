// Command rceda runs an RFID rule script over an observation stream and
// reports rule firings and the resulting data-store contents.
//
// Usage:
//
//	rceda -rules rules.rcep [-input stream.csv] [-dedup 1s] [-dump OBJECTCONTAINMENT]
//
// The input is CSV lines "reader,object,seconds" (stdin by default).
// Procedures named in the rules that are not built in are auto-registered
// as printers. With -simtypes, GID object classes resolve through the
// supply-chain simulator's type registry.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"rcep"
	"rcep/internal/core/event"
	"rcep/internal/rules"
	"rcep/internal/sim"
	"rcep/internal/stream"
)

func main() {
	var (
		rulesPath = flag.String("rules", "", "rule script file (required)")
		inputPath = flag.String("input", "-", "observation CSV; - for stdin")
		dedupWin  = flag.Duration("dedup", 0, "pre-filter duplicate window (0 = off)")
		dump      = flag.String("dump", "", "comma-separated tables to dump at the end")
		simTypes  = flag.Bool("simtypes", false, "resolve type(o) via the simulator's GID registry")
		quiet     = flag.Bool("quiet", false, "suppress per-firing output")
		shards    = flag.Int("shards", 1, "max parallel detection engines; rules partition by reader/group key space (1 = classic single engine)")
	)
	flag.Parse()
	if *rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	script, err := os.ReadFile(*rulesPath)
	if err != nil {
		log.Fatal(err)
	}

	cfg := rcep.Config{Rules: string(script), Shards: *shards}
	if *simTypes {
		cfg.TypeOf = sim.NewRegistry().TypeOf
	}
	if !*quiet {
		cfg.OnDetection = func(d rcep.Detection) {
			fmt.Printf("FIRE %-12s [%v .. %v] %v\n", d.RuleID, d.Begin, d.End, d.Bindings())
		}
	}
	eng, err := rcep.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	registerPrinters(eng, string(script))

	in := os.Stdin
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}

	sink := func(o event.Observation) error {
		return eng.Ingest(o.Reader, o.Object, time.Duration(o.At))
	}
	if *dedupWin > 0 {
		d := stream.NewDedup(*dedupWin, sink)
		sink = d.Push
	}
	n, err := stream.ReadCSV(in, sink)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Printf("rule errors: %v", err)
	}
	m := eng.Metrics()
	fmt.Printf("-- %d observations, %d detections, %d pseudo events, %d shard(s)\n", n, m.Detections, m.PseudoFired, eng.Shards())

	for _, tbl := range strings.Split(*dump, ",") {
		tbl = strings.TrimSpace(tbl)
		if tbl == "" {
			continue
		}
		cols, rows, err := eng.Query("SELECT * FROM " + tbl)
		if err != nil {
			log.Printf("dump %s: %v", tbl, err)
			continue
		}
		fmt.Printf("-- %s (%d rows)\n%v\n", tbl, len(rows), cols)
		for _, r := range rows {
			fmt.Println(r)
		}
	}
}

// registerPrinters registers a printing stub for every procedure the
// script calls.
func registerPrinters(eng *rcep.Engine, script string) {
	rs, err := rules.ParseScript(script)
	if err != nil {
		return // rcep.New already validated; defensive
	}
	seen := map[string]bool{}
	for _, r := range rs.Rules {
		for _, a := range r.Actions {
			p, ok := a.(*rules.ProcAction)
			if !ok || seen[p.Name] {
				continue
			}
			seen[p.Name] = true
			name := p.Name
			eng.RegisterProcedure(name, func(ctx rcep.ProcContext, args []any) error {
				fmt.Printf("CALL %s%v (rule %s)\n", name, args, ctx.RuleID)
				return nil
			})
		}
	}
}
