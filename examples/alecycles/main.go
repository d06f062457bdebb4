// Alecycles: the ALE-style middleware layer next to the CEP engine. The
// same smart-shelf stream feeds (a) an ALE collector producing per-cycle
// ADDITIONS/DELETIONS reports and (b) the rule engine producing infield/
// outfield events — the two views that commercial RFID middleware and the
// paper's event-oriented approach give over identical data.
//
// Run with: go run ./examples/alecycles
package main

import (
	"fmt"
	"log"
	"time"

	"rcep"
	"rcep/internal/core/event"
)

func main() {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

	// The shelf scans every 30s; soda leaves after two cycles, chips
	// arrives on the second.
	scans := []event.Observation{
		{Reader: "shelf-7", Object: "soda", At: event.Time(sec(0))},
		{Reader: "shelf-7", Object: "soda", At: event.Time(sec(30))},
		{Reader: "shelf-7", Object: "chips", At: event.Time(sec(30.1))},
		{Reader: "shelf-7", Object: "chips", At: event.Time(sec(60.1))},
	}

	// View 1: ALE event cycles.
	collector, err := NewCollector(Spec{
		Name:          "shelf-7-cycles",
		Readers:       []string{"shelf-7"},
		Period:        30 * time.Second,
		Reports:       []ReportType{Additions, Deletions},
		SuppressEmpty: true,
	}, func(r Report) {
		fmt.Printf("ALE cycle %d [%v..%v) %-9s %v\n", r.Cycle, r.Start, r.End, r.Type, r.Objects)
	})
	if err != nil {
		log.Fatal(err)
	}

	// View 2: the paper's semantic filtering rules.
	eng, err := rcep.New(rcep.Config{
		Rules: `
CREATE RULE infield, infield filtering
ON WITHIN(NOT observation('shelf-7', o, t1); observation('shelf-7', o, t2), 45sec)
IF true
DO shelf_event('infield', o)

CREATE RULE outfield, outfield filtering
ON WITHIN(observation('shelf-7', o, t1); NOT observation('shelf-7', o, t2), 45sec)
IF true
DO shelf_event('outfield', o)
`,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng.RegisterProcedure("shelf_event", func(ctx rcep.ProcContext, args []any) error {
		fmt.Printf("CEP %-8v %v at %v\n", args[0], args[1], ctx.End)
		return nil
	})

	for _, o := range scans {
		if err := collector.Push(o); err != nil {
			log.Fatal(err)
		}
		if err := eng.Ingest(o.Reader, o.Object, time.Duration(o.At)); err != nil {
			log.Fatal(err)
		}
	}
	collector.AdvanceTo(event.Time(sec(120)))
	collector.Flush()
	if err := eng.AdvanceTo(sec(120)); err != nil {
		log.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}
}
