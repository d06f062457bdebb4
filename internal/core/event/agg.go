package event

// AggOp identifies an aggregate function over an event run or a list
// binding: COUNT, SUM, AVG, MIN, MAX. The semantics mirror sqlmini's
// SELECT-projection aggregates exactly (null skipping, int/float sum
// promotion, Compare-based min/max) so a guard and a SELECT over the
// same values always agree.
type AggOp uint8

const (
	AggCount AggOp = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggOpNames = [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

func (op AggOp) String() string {
	if int(op) < len(aggOpNames) {
		return aggOpNames[op]
	}
	return "AGG?"
}

// AggOpNamed resolves an aggregate name case-insensitively. The names are
// ASCII, so it folds ASCII case and allocates nothing.
func AggOpNamed(name string) (AggOp, bool) {
	for op, n := range aggOpNames {
		if len(name) != len(n) {
			continue
		}
		i := 0
		for i < len(n) && (name[i] == n[i] || name[i] == n[i]+'a'-'A') {
			i++
		}
		if i == len(n) {
			return AggOp(op), true
		}
	}
	return 0, false
}

// AggError reports why an aggregate could not be computed. The two cases
// mirror sqlmini's aggregate errors: a non-numeric value under SUM/AVG,
// or incomparable values under MIN/MAX.
type AggError struct {
	Op           AggOp
	BadVal       string // String() of the first non-numeric value (SUM/AVG)
	Incomparable bool   // MIN/MAX over mixed value families
}

func (e *AggError) Error() string {
	if e.Incomparable {
		return e.Op.String() + " over incomparable values"
	}
	return e.Op.String() + " over non-numeric value " + e.BadVal
}

// CoerceScalar widens an RFID payload for arithmetic: string values are
// re-parsed as scalars (so a reading carried in an EPC object field, e.g.
// "27.5", aggregates numerically); every other kind passes through.
func CoerceScalar(v Value) Value {
	if v.Kind() == KindString {
		return ParseScalar(v.Str())
	}
	return v
}

// AggAcc incrementally accumulates one variable's values for all five
// aggregate ops at once. The zero value is an empty accumulator. Fields
// are exported (and JSON-tagged) so engine checkpoints can persist the
// state of an open SEQ+ run directly.
//
// Invariant: an accumulator fed the elements of a list binding in order
// yields the same Result as FoldAgg over that list.
type AggAcc struct {
	N      int64   `json:"n"`               // non-null values accumulated
	Sum    float64 `json:"sum"`             // running sum (ints widened)
	Float  bool    `json:"float,omitempty"` // saw a float → SUM stays float
	Bad    string  `json:"bad,omitempty"`   // first non-numeric value (poisons SUM/AVG)
	HasBad bool    `json:"hasBad,omitempty"`
	MinV   Value   `json:"min,omitempty"`
	MaxV   Value   `json:"max,omitempty"`
	Incmp  bool    `json:"incmp,omitempty"` // saw incomparable values (poisons MIN/MAX)
}

// Add folds one value. Nulls are skipped, matching SQL aggregate
// semantics. Callers that want payload coercion apply CoerceScalar first.
func (a *AggAcc) Add(v Value) {
	if v.IsNull() {
		return
	}
	a.N++
	if !a.HasBad {
		switch v.Kind() {
		case KindInt:
			a.Sum += float64(v.Int())
		case KindFloat:
			a.Float = true
			a.Sum += v.Float()
		case KindTime:
			a.Sum += float64(v.Time())
		default:
			a.HasBad, a.Bad = true, v.String()
		}
	}
	if a.Incmp {
		return
	}
	if a.N == 1 {
		a.MinV, a.MaxV = v, v
		return
	}
	// While no incomparable pair has been seen, MinV and MaxV belong to
	// the same comparison family, so one failed Compare poisons both.
	cmp, ok := v.Compare(a.MinV)
	if !ok {
		a.Incmp = true
		return
	}
	if cmp < 0 {
		a.MinV = v
	}
	if cmp, ok = v.Compare(a.MaxV); !ok {
		a.Incmp = true
		return
	} else if cmp > 0 {
		a.MaxV = v
	}
}

// Result reads one aggregate off the accumulator.
func (a *AggAcc) Result(op AggOp) (Value, error) {
	switch op {
	case AggCount:
		return IntValue(a.N), nil
	case AggSum:
		if a.HasBad {
			return Null, &AggError{Op: op, BadVal: a.Bad}
		}
		if a.Float {
			return FloatValue(a.Sum), nil
		}
		return IntValue(int64(a.Sum)), nil
	case AggAvg:
		if a.HasBad {
			return Null, &AggError{Op: op, BadVal: a.Bad}
		}
		if a.N == 0 {
			return Null, nil
		}
		return FloatValue(a.Sum / float64(a.N)), nil
	case AggMin, AggMax:
		if a.N == 0 {
			return Null, nil
		}
		if a.Incmp {
			return Null, &AggError{Op: op, Incomparable: true}
		}
		if op == AggMin {
			return a.MinV, nil
		}
		return a.MaxV, nil
	}
	return Null, &AggError{Op: op, BadVal: "?"}
}

// FoldAgg aggregates over a value's elements with payload coercion: a
// list binding (the shape CollectLists produces for SEQ+ runs) folds
// element-wise, a scalar acts as a one-element list, Null as empty.
func FoldAgg(op AggOp, v Value) (Value, error) {
	var acc AggAcc
	for i := 0; i < v.Len(); i++ {
		acc.Add(CoerceScalar(v.Elem(i)))
	}
	return acc.Result(op)
}
