package store

import (
	"sort"

	"rcep/internal/core/event"
)

// Temporal queries over the RFID data model (Wang & Liu, VLDB 2005 —
// reference [2] of the paper): location and containment histories, and
// effective locations that follow containment chains (an item inside a
// case is where the case is).

// Period is a half-open validity interval [Start, End); End == UC means
// "until changed".
type Period struct {
	Start, End event.Time
}

// LocationStay is one entry of an object's location history.
type LocationStay struct {
	Location string
	Period
}

// ContainmentSpan is one entry of an object's containment history.
type ContainmentSpan struct {
	Parent string
	Period
}

// LocationHistory returns the object's location history ordered by start
// time.
func LocationHistory(s *Store, objectEPC string) ([]LocationStay, error) {
	t, err := s.Table(TableLocation)
	if err != nil {
		return nil, err
	}
	var out []LocationStay
	if err := t.Lookup("object_epc", event.StringValue(objectEPC), func(_ int64, r Row) bool {
		out = append(out, LocationStay{
			Location: r[1].Str(),
			Period:   Period{Start: r[2].Time(), End: r[3].Time()},
		})
		return true
	}); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, nil
}

// ContainmentHistory returns the object's containment history ordered by
// start time.
func ContainmentHistory(s *Store, objectEPC string) ([]ContainmentSpan, error) {
	t, err := s.Table(TableContainment)
	if err != nil {
		return nil, err
	}
	var out []ContainmentSpan
	if err := t.Lookup("object_epc", event.StringValue(objectEPC), func(_ int64, r Row) bool {
		out = append(out, ContainmentSpan{
			Parent: r[1].Str(),
			Period: Period{Start: r[2].Time(), End: r[3].Time()},
		})
		return true
	}); err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out, nil
}

// EffectiveLocationAt resolves where an object actually was at time at:
// its own recorded location if any, else its container's effective
// location at that time, following the containment chain (bounded against
// cycles).
func EffectiveLocationAt(s *Store, objectEPC string, at event.Time) (string, bool) {
	seen := map[string]bool{}
	cur := objectEPC
	for depth := 0; depth < 64; depth++ {
		if seen[cur] {
			return "", false // containment cycle: corrupt data
		}
		seen[cur] = true
		if loc, ok := LocationAt(s, cur, at); ok {
			return loc, true
		}
		parent, ok := ContainerAt(s, cur, at)
		if !ok {
			return "", false
		}
		cur = parent
	}
	return "", false
}

// Trace reconstructs an object's full movement: the merged, time-ordered
// sequence of effective location stays, following containment where the
// object has no location of its own. Boundaries come from both the
// object's and its ancestors' history rows.
func Trace(s *Store, objectEPC string) ([]LocationStay, error) {
	// Collect candidate boundary timestamps: the object's own rows plus
	// every ancestor's rows reachable through its containment spans.
	bounds := map[event.Time]bool{}
	addHistory := func(epc string) error {
		hist, err := LocationHistory(s, epc)
		if err != nil {
			return err
		}
		for _, h := range hist {
			bounds[h.Start] = true
			if h.End != UC {
				bounds[h.End] = true
			}
		}
		return nil
	}
	if err := addHistory(objectEPC); err != nil {
		return nil, err
	}
	spans, err := ContainmentHistory(s, objectEPC)
	if err != nil {
		return nil, err
	}
	for _, sp := range spans {
		bounds[sp.Start] = true
		if sp.End != UC {
			bounds[sp.End] = true
		}
		// One level of ancestry is enough for boundary detection in
		// practice; deeper chains re-resolve per boundary below.
		if err := addHistory(sp.Parent); err != nil {
			return nil, err
		}
	}
	if len(bounds) == 0 {
		return nil, nil
	}
	ts := make([]event.Time, 0, len(bounds))
	for b := range bounds {
		ts = append(ts, b)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })

	var out []LocationStay
	for i, start := range ts {
		loc, ok := EffectiveLocationAt(s, objectEPC, start)
		if !ok {
			continue
		}
		end := UC
		if i+1 < len(ts) {
			end = ts[i+1]
		}
		if n := len(out); n > 0 && out[n-1].Location == loc && out[n-1].End == start {
			out[n-1].End = end // merge adjacent stays at the same place
			continue
		}
		out = append(out, LocationStay{Location: loc, Period: Period{Start: start, End: end}})
	}
	return out, nil
}
