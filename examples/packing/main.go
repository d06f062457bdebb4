// Packing: the paper's Example 1 / Rule 4 — automatic containment
// aggregation on a packing conveyor. Items pass an item reader 0.1–1s
// apart; the case tag is read 10–20s later; the rule aggregates the whole
// sequence into OBJECTCONTAINMENT rows via BULK INSERT.
//
// Run with: go run ./examples/packing
package main

import (
	"fmt"
	"log"
	"time"

	"rcep"
)

func main() {
	eng, err := rcep.New(rcep.Config{
		Rules: `
DEFINE E1 = observation('conveyor-items', o1, t1)
DEFINE E2 = observation('conveyor-case', o2, t2)
CREATE RULE r4, containment rule
ON TSEQ(TSEQ+(E1, 0.1sec, 1sec); E2, 10sec, 20sec)
IF true
DO BULK INSERT INTO OBJECTCONTAINMENT VALUES (o1, o2, t2, 'UC')
`,
		OnDetection: func(d rcep.Detection) {
			b := d.Bindings()
			fmt.Printf("packed %v into %v at %v\n", b["o1"], b["o2"], d.End)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	feed := func(reader, object string, at time.Duration) {
		if err := eng.Ingest(reader, object, at); err != nil {
			log.Fatal(err)
		}
	}

	// First case: three items, then the case 12s later.
	feed("conveyor-items", "item-A1", sec(1.0))
	feed("conveyor-items", "item-A2", sec(1.4))
	feed("conveyor-items", "item-A3", sec(1.8))
	feed("conveyor-case", "case-A", sec(14))

	// Second case overlapping the tail of the first on the timeline —
	// the chronicle context keeps the aggregations apart.
	feed("conveyor-items", "item-B1", sec(20.0))
	feed("conveyor-items", "item-B2", sec(20.5))
	feed("conveyor-case", "case-B", sec(32))

	if err := eng.Close(); err != nil {
		log.Fatal(err)
	}

	// The virtual world now mirrors the physical packing:
	cols, rows, err := eng.Query(`SELECT object_epc, parent_epc, tend FROM OBJECTCONTAINMENT`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cols)
	for _, r := range rows {
		fmt.Println(r)
	}
}
