package expr

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"genogo/internal/gdm"
)

// AggFunc enumerates the aggregate functions of GMQL (used by MAP, EXTEND,
// GROUP, COVER attribute computation and the AGGREGATE forms of the paper).
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggCountSamp
	AggSum
	AggAvg
	AggMin
	AggMax
	AggMedian
	AggStd
	AggBag
)

// String renders the function name in GMQL surface syntax.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggCountSamp:
		return "COUNTSAMP"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggMedian:
		return "MEDIAN"
	case AggStd:
		return "STD"
	case AggBag:
		return "BAG"
	default:
		return fmt.Sprintf("AGG(%d)", uint8(f))
	}
}

// ParseAggFunc resolves a GMQL aggregate function name.
func ParseAggFunc(name string) (AggFunc, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "COUNT":
		return AggCount, nil
	case "COUNTSAMP":
		return AggCountSamp, nil
	case "SUM":
		return AggSum, nil
	case "AVG", "MEAN":
		return AggAvg, nil
	case "MIN":
		return AggMin, nil
	case "MAX":
		return AggMax, nil
	case "MEDIAN":
		return AggMedian, nil
	case "STD", "STDEV":
		return AggStd, nil
	case "BAG":
		return AggBag, nil
	default:
		return AggCount, fmt.Errorf("expr: unknown aggregate function %q", name)
	}
}

// NeedsAttr reports whether the function requires an input attribute
// (COUNT and COUNTSAMP count regions/samples and take none).
func (f AggFunc) NeedsAttr() bool { return f != AggCount && f != AggCountSamp }

// ResultKind predicts the kind of the aggregate's result given the input
// attribute kind (ignored for COUNT-like functions).
func (f AggFunc) ResultKind(input gdm.Kind) gdm.Kind {
	switch f {
	case AggCount, AggCountSamp:
		return gdm.KindInt
	case AggAvg, AggMedian, AggStd:
		return gdm.KindFloat
	case AggSum:
		if input == gdm.KindInt {
			return gdm.KindInt
		}
		return gdm.KindFloat
	case AggMin, AggMax:
		return input
	case AggBag:
		return gdm.KindString
	default:
		return gdm.KindNull
	}
}

// Aggregate is one "output AS FUNC(attr)" clause.
type Aggregate struct {
	Output string  // result attribute name
	Func   AggFunc // aggregate function
	Attr   string  // input attribute ("" for COUNT)
}

// String renders the clause in GMQL surface syntax.
func (a Aggregate) String() string {
	if !a.Func.NeedsAttr() {
		return fmt.Sprintf("%s AS %s", a.Output, a.Func)
	}
	return fmt.Sprintf("%s AS %s(%s)", a.Output, a.Func, a.Attr)
}

// Accumulator folds a stream of values into one aggregate result. The zero
// count yields null (except COUNT-like functions, which yield 0).
type Accumulator struct {
	fn      AggFunc
	n       int64
	sumF    float64
	sumSq   float64
	allInt  bool
	sumI    int64
	min     gdm.Value
	max     gdm.Value
	samples []float64 // median only
	bag     []string  // bag only
}

// NewAccumulator returns an empty accumulator for the function.
func NewAccumulator(fn AggFunc) *Accumulator {
	a := MakeAccumulator(fn)
	return &a
}

// MakeAccumulator returns an empty accumulator for the function by value, so
// an operator folding many groups at once can hold them in one flat slice
// instead of one heap object per group.
func MakeAccumulator(fn AggFunc) Accumulator {
	return Accumulator{fn: fn, allInt: true}
}

// Add folds one value. Null values are skipped (they carry no information),
// except for COUNT-like functions where Add counts occurrences regardless of
// the value passed.
func (a *Accumulator) Add(v gdm.Value) {
	if a.fn == AggCount || a.fn == AggCountSamp {
		a.n++
		return
	}
	if v.IsNull() {
		return
	}
	switch a.fn {
	case AggBag:
		a.n++
		a.bag = append(a.bag, v.String())
		return
	case AggMin:
		if a.n == 0 || gdm.Compare(v, a.min) < 0 {
			a.min = v
		}
		a.n++
		return
	case AggMax:
		if a.n == 0 || gdm.Compare(v, a.max) > 0 {
			a.max = v
		}
		a.n++
		return
	}
	f, ok := v.AsFloat()
	if !ok {
		// Strings in numeric aggregates are parsed when possible; metadata
		// values arrive as strings.
		var err error
		f, err = strconv.ParseFloat(strings.TrimSpace(v.Str()), 64)
		if err != nil {
			return
		}
	}
	if v.Kind() != gdm.KindInt {
		a.allInt = false
	}
	a.n++
	a.sumF += f
	a.sumSq += f * f
	a.sumI += int64(f)
	if a.fn == AggMedian {
		a.samples = append(a.samples, f)
	}
}

// Count returns how many values were folded.
func (a *Accumulator) Count() int64 { return a.n }

// Result returns the aggregate value.
func (a *Accumulator) Result() gdm.Value {
	switch a.fn {
	case AggCount, AggCountSamp:
		return gdm.Int(a.n)
	}
	if a.n == 0 {
		return gdm.Null()
	}
	switch a.fn {
	case AggSum:
		if a.allInt {
			return gdm.Int(a.sumI)
		}
		return gdm.Float(a.sumF)
	case AggAvg:
		return gdm.Float(a.sumF / float64(a.n))
	case AggMin:
		return a.min
	case AggMax:
		return a.max
	case AggMedian:
		s := append([]float64(nil), a.samples...)
		sort.Float64s(s)
		mid := len(s) / 2
		if len(s)%2 == 1 {
			return gdm.Float(s[mid])
		}
		return gdm.Float((s[mid-1] + s[mid]) / 2)
	case AggStd:
		mean := a.sumF / float64(a.n)
		varc := a.sumSq/float64(a.n) - mean*mean
		if varc < 0 {
			varc = 0 // numeric noise
		}
		return gdm.Float(math.Sqrt(varc))
	case AggBag:
		s := append([]string(nil), a.bag...)
		sort.Strings(s)
		return gdm.Str(strings.Join(s, ","))
	default:
		return gdm.Null()
	}
}

// AggregateValues folds a whole slice at once — convenience for tests and
// for operators that already gathered the group.
func AggregateValues(fn AggFunc, vs []gdm.Value) gdm.Value {
	acc := NewAccumulator(fn)
	for _, v := range vs {
		acc.Add(v)
	}
	return acc.Result()
}

// AggregateStrings folds metadata values (strings) — used by EXTEND/GROUP
// aggregates over metadata and by the federation statistics endpoints.
func AggregateStrings(fn AggFunc, vs []string) gdm.Value {
	acc := NewAccumulator(fn)
	for _, v := range vs {
		acc.Add(gdm.Str(v))
	}
	return acc.Result()
}
