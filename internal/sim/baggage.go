package sim

import (
	"math/rand"
	"time"

	"rcep/internal/core/event"
)

// Baggage-handling scenario: bags are tagged at check-in and read again
// by the loader portal at the aircraft. Two window-scoped negation rules
// cover both mishandling directions: a bag checked in but not loaded
// within the service window is lost; a bag seen at the loader with no
// check-in in the preceding window is a stray (e.g. a mis-sorted
// transfer bag).

// BaggageConfig parameterizes a baggage scenario.
type BaggageConfig struct {
	Seed int64
	// Bags is the number of normally handled bags (loaded in time).
	Bags int
	// Late bags are loaded after the 5min service window: lost, not stray.
	Late int
	// Never bags are checked in and never loaded: lost.
	Never int
	// Stray bags appear at the loader with no check-in at all: stray.
	Stray int
	// VeryLate bags are loaded more than 10min after check-in: lost AND
	// stray (the load's look-back window no longer sees the check-in).
	VeryLate int
}

// DefaultBaggageConfig returns a small scenario.
func DefaultBaggageConfig() BaggageConfig {
	return BaggageConfig{Seed: 11, Bags: 10, Late: 2, Never: 2, Stray: 2, VeryLate: 1}
}

// BaggageTruth is the scenario's ground truth: bag EPCs per outcome.
type BaggageTruth struct {
	Lost  []string
	Stray []string
}

// BaggageScenario bundles the stream with its registry and ground truth.
type BaggageScenario struct {
	Observations []event.Observation
	Registry     interface{ TypeOf(string) string }
	Truth        BaggageTruth
}

// BaggageRules is the scenario's rule script. It expects a MISHANDLED
// table (BaggageDDL) and procedures lost_bag and stray_bag.
const BaggageRules = `
-- Lost: checked in, then no loader read within the 5min service window.
CREATE RULE lostbag, bag not loaded in time
ON SEQ(observation('checkin', b, t1) ; NOT observation('load', b, t2) WITHIN 5min)
IF true
DO INSERT INTO MISHANDLED VALUES (b, 'lost', event_end);
   lost_bag(b)

-- Stray: a loader read with no check-in in the 10min before it.
CREATE RULE straybag, bag loaded without checkin
ON SEQ(NOT observation('checkin', c, u1) WITHIN 10min ; observation('load', c, u2))
IF true
DO INSERT INTO MISHANDLED VALUES (c, 'stray', event_end);
   stray_bag(c)
`

// BaggageDDL creates the MISHANDLED table the rules write into.
const BaggageDDL = `CREATE TABLE MISHANDLED (bag STRING, kind STRING, at TIME)`

// GenerateBaggage builds the scenario deterministically.
func GenerateBaggage(cfg BaggageConfig) *BaggageScenario {
	rng := rand.New(rand.NewSource(cfg.Seed))
	reg := NewRegistry()
	sc := &BaggageScenario{Registry: reg}
	var obs []event.Observation
	add := func(reader, object string, at event.Time) {
		obs = append(obs, event.Observation{Reader: reader, Object: object, At: at})
	}

	t := event.Time(0)
	serial := uint64(0)
	bag := func() string {
		serial++
		return gid(ClassCase, serial)
	}
	checkin := func(id string) event.Time {
		at := t
		add("checkin", id, at)
		t = t.Add(time.Duration(20+rng.Intn(40)) * time.Second)
		return at
	}

	for i := 0; i < cfg.Bags; i++ {
		id := bag()
		at := checkin(id)
		add("load", id, at.Add(time.Duration(1+rng.Intn(4))*time.Minute))
	}
	for i := 0; i < cfg.Late; i++ {
		id := bag()
		at := checkin(id)
		add("load", id, at.Add(time.Duration(6+rng.Intn(3))*time.Minute))
		sc.Truth.Lost = append(sc.Truth.Lost, id)
	}
	for i := 0; i < cfg.Never; i++ {
		id := bag()
		checkin(id)
		sc.Truth.Lost = append(sc.Truth.Lost, id)
	}
	for i := 0; i < cfg.Stray; i++ {
		id := bag()
		add("load", id, t)
		t = t.Add(time.Duration(20+rng.Intn(40)) * time.Second)
		sc.Truth.Stray = append(sc.Truth.Stray, id)
	}
	for i := 0; i < cfg.VeryLate; i++ {
		id := bag()
		at := checkin(id)
		add("load", id, at.Add(time.Duration(11+rng.Intn(4))*time.Minute))
		sc.Truth.Lost = append(sc.Truth.Lost, id)
		sc.Truth.Stray = append(sc.Truth.Stray, id)
	}

	event.Batch(obs).Sort()
	sc.Observations = obs
	return sc
}
