package sim

import (
	"math/rand"
	"time"

	"rcep/internal/core/event"
)

// Library scenario: the paper's §1 lists library check-in/check-out among
// RFID's applications. A checkout desk reads a book tag and the patron's
// card within a short window (an AND join of two typed objects); a
// security gate at the exit flags books leaving without an open loan
// (a rule whose CONDITION queries the data store).

// GID object classes for the library scenario.
const (
	ClassBook   = 10
	ClassPatron = 11
)

// LibraryConfig parameterizes a library scenario.
type LibraryConfig struct {
	Seed      int64
	Patrons   int
	Books     int
	Loans     int     // checkout events to generate
	Returns   float64 // fraction of loans returned before the exit
	TheftRate float64 // fraction of exits with a book never checked out
}

// DefaultLibraryConfig returns a small scenario.
func DefaultLibraryConfig() LibraryConfig {
	return LibraryConfig{
		Seed: 1, Patrons: 4, Books: 10, Loans: 6,
		Returns: 0.5, TheftRate: 0.25,
	}
}

// LibraryTruth is the scenario's ground truth.
type LibraryTruth struct {
	Loans    map[string]string // book → patron
	Returned []string          // books returned at the desk
	Thefts   []string          // books carried out with no open loan
}

// LibraryScenario bundles the stream with its metadata.
type LibraryScenario struct {
	Observations []event.Observation
	Registry     interface{ TypeOf(string) string }
	Truth        LibraryTruth
}

// LibraryRules is the scenario's rule script. It expects a LOANS table
// (see LibraryLoansDDL) and procedures checkout_receipt and theft_alarm.
const LibraryRules = `
-- Checkout: a book and a patron card on the desk within 2 seconds.
DEFINE DeskBook   = observation('desk', b, tb), type(b) = 'book'
DEFINE DeskPatron = observation('desk', p, tp), type(p) = 'patron'
CREATE RULE checkout, checkout association
ON WITHIN(DeskBook AND DeskPatron, 2sec)
IF true
DO UPDATE LOANS SET tend = tb WHERE book = b AND tend = 'UC';
   INSERT INTO LOANS VALUES (b, p, tb, 'UC');
   checkout_receipt(b, p)

-- Return: the book alone on the return desk closes the open loan.
CREATE RULE bookreturn, return handling
ON observation('returns', b, t), type(b) = 'book'
IF true
DO UPDATE LOANS SET tend = t WHERE book = b AND tend = 'UC'

-- Security: a book at the exit gate with NO open loan is a theft.
CREATE RULE gate, security gate
ON observation('gate', b, t), type(b) = 'book'
IF NOT EXISTS (SELECT * FROM LOANS WHERE book = b AND tend = 'UC')
DO theft_alarm(b, t)
`

// LibraryLoansDDL creates the LOANS table the rules write into.
const LibraryLoansDDL = `CREATE TABLE LOANS (book STRING, patron STRING, tstart TIME, tend TIME)`

// GenerateLibrary builds the scenario deterministically.
func GenerateLibrary(cfg LibraryConfig) *LibraryScenario {
	rng := rand.New(rand.NewSource(cfg.Seed))
	reg := NewRegistry()
	reg.MapGIDClass(ClassBook, "book")
	reg.MapGIDClass(ClassPatron, "patron")

	books := make([]string, cfg.Books)
	for i := range books {
		books[i] = gid(ClassBook, uint64(1000+i))
	}
	patrons := make([]string, cfg.Patrons)
	for i := range patrons {
		patrons[i] = gid(ClassPatron, uint64(2000+i))
	}

	sc := &LibraryScenario{
		Registry: reg,
		Truth:    LibraryTruth{Loans: map[string]string{}},
	}
	var obs []event.Observation
	t := event.Time(0)
	add := func(reader, object string, at event.Time) {
		obs = append(obs, event.Observation{Reader: reader, Object: object, At: at})
	}

	// Checkouts: book then card on the desk ~1s apart; loans spaced 30s.
	// loanOrder keeps generation deterministic (maps iterate randomly).
	loaned := map[string]bool{}
	var loanOrder []string
	for i := 0; i < cfg.Loans && i < len(books); i++ {
		book := books[i]
		patron := patrons[rng.Intn(len(patrons))]
		add("desk", book, t)
		add("desk", patron, t.Add(time.Second))
		sc.Truth.Loans[book] = patron
		loaned[book] = true
		loanOrder = append(loanOrder, book)
		t = t.Add(30 * time.Second)
	}

	// Some loans are returned; returned books stay inside (passing the
	// gate after a return would correctly alarm, since the loan closed).
	for i, book := range loanOrder {
		if float64(i) < cfg.Returns*float64(len(loanOrder)) {
			add("returns", book, t)
			sc.Truth.Returned = append(sc.Truth.Returned, book)
			t = t.Add(10 * time.Second)
		}
	}
	returned := map[string]bool{}
	for _, b := range sc.Truth.Returned {
		returned[b] = true
	}

	// Exits: loaned-and-not-returned books pass legitimately; some never-
	// loaned books are carried out (thefts).
	for _, book := range loanOrder {
		if !returned[book] {
			add("gate", book, t)
			t = t.Add(5 * time.Second)
		}
	}
	theftBudget := int(cfg.TheftRate * float64(len(books)))
	for _, book := range books {
		if theftBudget == 0 {
			break
		}
		if !loaned[book] {
			add("gate", book, t)
			sc.Truth.Thefts = append(sc.Truth.Thefts, book)
			t = t.Add(5 * time.Second)
			theftBudget--
		}
	}

	event.Batch(obs).Sort()
	sc.Observations = obs
	return sc
}
