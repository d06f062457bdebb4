package sim

import (
	"math/rand"
	"strconv"
	"time"

	"rcep/internal/core/event"
)

// Cold-chain scenario: a chilled dock zone logs temperature probes as
// RFID sensor observations whose object field carries the reading
// (degrees Celsius as a decimal string). Two rules exercise the guarded
// rule language end to end: a windowed-aggregate rule detects an
// excursion — a run of at least three readings whose peak exceeds 8°C —
// and an inequality rule flags a sudden warm-up between two consecutive
// door-probe readings.

// ColdChainConfig parameterizes a cold-chain scenario.
type ColdChainConfig struct {
	Seed int64
	// Runs is the number of reading bursts on the chill sensor; bursts
	// are separated by more than the 90s adjacency bound, so each is one
	// TSEQ+ run.
	Runs int
	// WarmEvery makes every n-th run an excursion (≥3 readings peaking
	// above 8°C). The run after each excursion is generated warm but
	// too short to satisfy COUNT(v) >= 3.
	WarmEvery int
	// JumpPairs is the number of door-probe reading pairs; roughly half
	// jump by more than 5°C.
	JumpPairs int
}

// DefaultColdChainConfig returns a small scenario.
func DefaultColdChainConfig() ColdChainConfig {
	return ColdChainConfig{Seed: 7, Runs: 8, WarmEvery: 3, JumpPairs: 6}
}

// ColdExcursion is one ground-truth temperature excursion.
type ColdExcursion struct {
	Count int     // readings in the run
	Peak  float64 // maximum reading
}

// ColdChainTruth is the scenario's ground truth.
type ColdChainTruth struct {
	Excursions []ColdExcursion
	Jumps      [][2]string // (v1, v2) probe pairs with v2 > v1 + 5
}

// ColdChainScenario bundles the stream with its ground truth.
type ColdChainScenario struct {
	Observations []event.Observation
	Truth        ColdChainTruth
}

// ColdChainRules is the scenario's rule script. It expects an EXCURSIONS
// table (ColdChainDDL) and procedures excursion_alarm and jump_alarm.
const ColdChainRules = `
-- Excursion: a run of chill readings (adjacent within 90s) with at
-- least three readings peaking above 8°C. The INSERT folds the run's
-- collected column through scalar aggregates.
CREATE RULE excursion, cold chain excursion
ON WITHIN(TSEQ+(observation('chill', v, t), 0sec, 90sec), 30min) WHERE MAX(v) > 8 AND COUNT(v) >= 3
IF true
DO INSERT INTO EXCURSIONS VALUES (COUNT(v), AVG(v), MAX(v), event_begin, event_end);
   excursion_alarm(COUNT(v), MAX(v))

-- Jump: a warm-up of more than 5°C between two door-probe readings
-- close together in time.
CREATE RULE warmjump, sudden warmup
ON WITHIN(SEQ(observation('probe', v1, t1) ; observation('probe', v2, t2)), 10sec) WHERE v2 > v1 + 5
IF true
DO jump_alarm(v1, v2)
`

// ColdChainDDL creates the EXCURSIONS table the rules write into.
const ColdChainDDL = `CREATE TABLE EXCURSIONS (n INT, mean REAL, peak REAL, tstart TIME, tend TIME)`

func tempStr(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

// GenerateColdChain builds the scenario deterministically.
func GenerateColdChain(cfg ColdChainConfig) *ColdChainScenario {
	rng := rand.New(rand.NewSource(cfg.Seed))
	sc := &ColdChainScenario{}
	var obs []event.Observation
	t := event.Time(0)
	add := func(reader string, v float64, at event.Time) {
		obs = append(obs, event.Observation{Reader: reader, Object: tempStr(v), At: at})
	}

	// Chill-sensor bursts. Cold runs stay below 8°C; every WarmEvery-th
	// run peaks above it with enough readings to count as an excursion;
	// the run right after an excursion is warm but too short, pinning
	// the COUNT(v) >= 3 conjunct.
	shortWarm := false
	for run := 0; run < cfg.Runs; run++ {
		warm := cfg.WarmEvery > 0 && run%cfg.WarmEvery == cfg.WarmEvery-1
		n := 3 + rng.Intn(4)
		if shortWarm {
			n = 2
		}
		peak, peakAt := 0.0, rng.Intn(n)
		for i := 0; i < n; i++ {
			v := 2 + rng.Float64()*5 // 2–7°C: safely cold
			if (warm || shortWarm) && i == peakAt {
				v = 9 + rng.Float64()*3 // 9–12°C: excursion peak
			}
			v = float64(int(v*10)) / 10 // one decimal, like the probe
			if v > peak {
				peak = v
			}
			add("chill", v, t)
			t = t.Add(time.Duration(20+rng.Intn(60)) * time.Second)
		}
		if warm && n >= 3 {
			sc.Truth.Excursions = append(sc.Truth.Excursions, ColdExcursion{Count: n, Peak: peak})
		}
		shortWarm = warm
		t = t.Add(5 * time.Minute) // > 90s: the run closes
	}

	// Door-probe pairs, isolated by more than the 10s pairing window so
	// chronicle consumption is unambiguous.
	for i := 0; i < cfg.JumpPairs; i++ {
		v1 := 2 + rng.Float64()*4
		v1 = float64(int(v1*10)) / 10
		delta := 1 + rng.Float64()*3 // small drift: no jump
		if i%2 == 0 {
			delta = 6 + rng.Float64()*4 // > 5°C warm-up
		}
		v2 := float64(int((v1+delta)*10)) / 10
		add("probe", v1, t)
		add("probe", v2, t.Add(4*time.Second))
		if v2 > v1+5 {
			sc.Truth.Jumps = append(sc.Truth.Jumps, [2]string{tempStr(v1), tempStr(v2)})
		}
		t = t.Add(time.Minute)
	}

	event.Batch(obs).Sort()
	sc.Observations = obs
	return sc
}
