package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"rcep/internal/core/event"
)

func ts(sec float64) event.Time { return event.Time(sec * float64(time.Second)) }

func o(reader, object string, sec float64) event.Observation {
	return event.Observation{Reader: reader, Object: object, At: ts(sec)}
}

func collect(t *testing.T, spec Spec, obs ...event.Observation) []Report {
	t.Helper()
	var got []Report
	c, err := NewCollector(spec, func(r Report) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	for _, ob := range obs {
		if err := c.Push(ob); err != nil {
			t.Fatal(err)
		}
	}
	c.Flush()
	return got
}

func TestSpecValidation(t *testing.T) {
	if _, err := NewCollector(Spec{Readers: []string{"r"}, Reports: []ReportType{Current}}, nil); err == nil {
		t.Errorf("zero period accepted")
	}
	if _, err := NewCollector(Spec{Period: time.Second, Reports: []ReportType{Current}}, nil); err == nil {
		t.Errorf("no readers accepted")
	}
	if _, err := NewCollector(Spec{Period: time.Second, Readers: []string{"r"}}, nil); err == nil {
		t.Errorf("no report types accepted")
	}
}

func TestCurrentReportPerCycle(t *testing.T) {
	got := collect(t, Spec{
		Name: "shelf", Readers: []string{"shelf1"},
		Period: 10 * time.Second, Reports: []ReportType{Current},
	},
		o("shelf1", "a", 0), o("shelf1", "b", 3),
		o("shelf1", "a", 12), // next cycle
	)
	if len(got) != 2 {
		t.Fatalf("reports: %d (%v)", len(got), got)
	}
	if !reflect.DeepEqual(got[0].Objects, []string{"a", "b"}) || got[0].Cycle != 0 {
		t.Errorf("cycle 0: %+v", got[0])
	}
	if !reflect.DeepEqual(got[1].Objects, []string{"a"}) || got[1].Cycle != 1 {
		t.Errorf("cycle 1: %+v", got[1])
	}
	if got[0].Start != ts(0) || got[0].End != ts(10) || got[1].Start != ts(10) {
		t.Errorf("cycle boundaries: %+v %+v", got[0], got[1])
	}
}

func TestAdditionsAndDeletions(t *testing.T) {
	got := collect(t, Spec{
		Name: "shelf", Readers: []string{"s"},
		Period: 10 * time.Second, Reports: []ReportType{Additions, Deletions},
	},
		o("s", "a", 0), o("s", "b", 1), // cycle 0: a, b
		o("s", "b", 11), o("s", "c", 12), // cycle 1: b, c
	)
	// cycle 0: additions {a, b}, deletions {}; cycle 1: additions {c},
	// deletions {a}.
	byKey := map[string][]string{}
	for _, r := range got {
		byKey[r.Type.String()+string(rune('0'+r.Cycle))] = r.Objects
	}
	if !reflect.DeepEqual(byKey["ADDITIONS0"], []string{"a", "b"}) {
		t.Errorf("additions 0: %v", byKey["ADDITIONS0"])
	}
	if len(byKey["DELETIONS0"]) != 0 {
		t.Errorf("deletions 0: %v", byKey["DELETIONS0"])
	}
	if !reflect.DeepEqual(byKey["ADDITIONS1"], []string{"c"}) {
		t.Errorf("additions 1: %v", byKey["ADDITIONS1"])
	}
	if !reflect.DeepEqual(byKey["DELETIONS1"], []string{"a"}) {
		t.Errorf("deletions 1: %v", byKey["DELETIONS1"])
	}
}

func TestEmptyCyclesViaAdvance(t *testing.T) {
	var got []Report
	c, err := NewCollector(Spec{
		Name: "s", Readers: []string{"r"},
		Period: 10 * time.Second, Reports: []ReportType{Deletions},
	}, func(r Report) { got = append(got, r) })
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Push(o("r", "a", 0))
	// Nothing else arrives: advancing two cycles must report the
	// disappearance of a.
	c.AdvanceTo(ts(25))
	if len(got) != 2 {
		t.Fatalf("reports: %v", got)
	}
	if len(got[0].Objects) != 0 {
		t.Errorf("cycle 0 deletions: %v", got[0].Objects)
	}
	if !reflect.DeepEqual(got[1].Objects, []string{"a"}) {
		t.Errorf("cycle 1 deletions: %v", got[1].Objects)
	}
}

func TestReaderScopeAndFilter(t *testing.T) {
	got := collect(t, Spec{
		Name: "s", Readers: []string{"mine"},
		Period:  10 * time.Second,
		Reports: []ReportType{Current},
		Filter:  func(obj string) bool { return strings.HasPrefix(obj, "keep") },
	},
		o("mine", "keep-1", 0),
		o("other", "keep-2", 1), // wrong reader
		o("mine", "drop-1", 2),  // filtered
	)
	if len(got) != 1 || !reflect.DeepEqual(got[0].Objects, []string{"keep-1"}) {
		t.Fatalf("scope/filter: %v", got)
	}
}

func TestSuppressEmpty(t *testing.T) {
	got := collect(t, Spec{
		Name: "s", Readers: []string{"r"},
		Period: 10 * time.Second, Reports: []ReportType{Additions, Deletions},
		SuppressEmpty: true,
	},
		o("r", "a", 0),
		o("r", "a", 11),
	)
	// Cycle 0: additions {a} only (deletions empty suppressed); cycle 1:
	// nothing (a unchanged).
	if len(got) != 1 || got[0].Type != Additions {
		t.Fatalf("suppress empty: %v", got)
	}
}

func TestSkippedCyclesCatchUp(t *testing.T) {
	// A long silent gap crosses several boundaries at once.
	got := collect(t, Spec{
		Name: "s", Readers: []string{"r"},
		Period: 10 * time.Second, Reports: []ReportType{Current},
	},
		o("r", "a", 0),
		o("r", "b", 35), // skips cycles 1 and 2
	)
	if len(got) != 4 {
		t.Fatalf("reports: %d (%v)", len(got), got)
	}
	if len(got[1].Objects) != 0 || len(got[2].Objects) != 0 {
		t.Errorf("empty cycles should report empty: %v %v", got[1], got[2])
	}
	if got[3].Cycle != 3 || !reflect.DeepEqual(got[3].Objects, []string{"b"}) {
		t.Errorf("cycle 3: %+v", got[3])
	}
}

func TestOutOfOrderBeforeStartRejected(t *testing.T) {
	c, _ := NewCollector(Spec{
		Name: "s", Readers: []string{"r"},
		Period: 10 * time.Second, Reports: []ReportType{Current},
	}, func(Report) {})
	_ = c.Push(o("r", "a", 20))
	if err := c.Push(o("r", "b", 5)); err == nil {
		t.Fatalf("regressing observation accepted")
	}
}

func TestReportTypeString(t *testing.T) {
	if Current.String() != "CURRENT" || Additions.String() != "ADDITIONS" || Deletions.String() != "DELETIONS" {
		t.Errorf("report type strings")
	}
	if !strings.HasPrefix(ReportType(9).String(), "report(") {
		t.Errorf("unknown report type string")
	}
}
