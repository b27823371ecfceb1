package hyql

import (
	"fmt"
	"math"
	"strings"
	gotime "time"

	"hygraph/internal/lpg"
	"hygraph/internal/ts"
)

// evalCtx carries one row's bindings during expression evaluation.
type evalCtx struct {
	row map[string]Value
}

// eval evaluates a non-aggregate expression against a row.
func eval(e Expr, ctx *evalCtx) (Value, error) {
	switch x := e.(type) {
	case Lit:
		return evalLit(x), nil
	case Ident:
		v, ok := ctx.row[x.Name]
		if !ok {
			return NullValue, fmt.Errorf("hyql: unknown identifier %q", x.Name)
		}
		return v, nil
	case PropAccess:
		b, ok := ctx.row[x.On]
		if !ok {
			return NullValue, fmt.Errorf("hyql: unknown identifier %q", x.On)
		}
		switch b.Kind() {
		case VNode:
			return Scalar(b.Node().Prop(x.Key)), nil
		case VEdge:
			return Scalar(b.Edge().Prop(x.Key)), nil
		}
		return NullValue, fmt.Errorf("hyql: %q is not an entity, cannot read .%s", x.On, x.Key)
	case Unary:
		v, err := eval(x.X, ctx)
		if err != nil {
			return NullValue, err
		}
		switch x.Op {
		case "NOT":
			if v.IsNull() {
				return NullValue, nil
			}
			return Scalar(lpg.Bool(!v.Truthy())), nil
		case "-":
			if f, ok := v.AsFloat(); ok {
				if i, isInt := v.AsScalar().AsInt(); isInt {
					return Scalar(lpg.Int(-i)), nil
				}
				return Scalar(lpg.Float(-f)), nil
			}
			return NullValue, fmt.Errorf("hyql: cannot negate %s", v)
		}
		return NullValue, fmt.Errorf("hyql: unknown unary %q", x.Op)
	case Binary:
		return evalBinary(x, ctx)
	case Call:
		return evalCall(x, ctx)
	}
	return NullValue, fmt.Errorf("hyql: unhandled expression %T", e)
}

func evalLit(l Lit) Value {
	switch {
	case l.IsNull:
		return NullValue
	case l.Str != nil:
		return Scalar(lpg.Str(*l.Str))
	case l.Int != nil:
		return Scalar(lpg.Int(*l.Int))
	case l.Num != nil:
		return Scalar(lpg.Float(*l.Num))
	case l.Bool != nil:
		return Scalar(lpg.Bool(*l.Bool))
	}
	return NullValue
}

func evalBinary(b Binary, ctx *evalCtx) (Value, error) {
	// AND/OR get short-circuit + ternary null handling.
	if b.Op == "AND" || b.Op == "OR" {
		l, err := eval(b.L, ctx)
		if err != nil {
			return NullValue, err
		}
		if b.Op == "AND" && !l.IsNull() && !l.Truthy() {
			return Scalar(lpg.Bool(false)), nil
		}
		if b.Op == "OR" && l.Truthy() {
			return Scalar(lpg.Bool(true)), nil
		}
		r, err := eval(b.R, ctx)
		if err != nil {
			return NullValue, err
		}
		if l.IsNull() || r.IsNull() {
			return NullValue, nil
		}
		if b.Op == "AND" {
			return Scalar(lpg.Bool(l.Truthy() && r.Truthy())), nil
		}
		return Scalar(lpg.Bool(l.Truthy() || r.Truthy())), nil
	}
	l, err := eval(b.L, ctx)
	if err != nil {
		return NullValue, err
	}
	r, err := eval(b.R, ctx)
	if err != nil {
		return NullValue, err
	}
	switch b.Op {
	case "=", "<>":
		if l.IsNull() || r.IsNull() {
			return NullValue, nil
		}
		eq := sameKey(l, r)
		// Numeric cross-kind equality (1 = 1.0).
		if lf, lok := l.AsFloat(); lok {
			if rf, rok := r.AsFloat(); rok {
				eq = lf == rf
			}
		}
		if b.Op == "<>" {
			eq = !eq
		}
		return Scalar(lpg.Bool(eq)), nil
	case "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return NullValue, nil
		}
		var c int
		if lf, lok := l.AsFloat(); lok {
			rf, rok := r.AsFloat()
			if !rok {
				return NullValue, fmt.Errorf("hyql: cannot compare %s with %s", l, r)
			}
			switch {
			case lf < rf:
				c = -1
			case lf > rf:
				c = 1
			}
		} else {
			c = l.compare(r)
		}
		var res bool
		switch b.Op {
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return Scalar(lpg.Bool(res)), nil
	case "+", "-", "*", "/", "%":
		// String concatenation with +.
		if b.Op == "+" {
			if ls, ok := l.AsScalar().AsString(); ok {
				return Scalar(lpg.Str(ls + r.String())), nil
			}
		}
		lf, lok := l.AsFloat()
		rf, rok := r.AsFloat()
		if !lok || !rok {
			if l.IsNull() || r.IsNull() {
				return NullValue, nil
			}
			return NullValue, fmt.Errorf("hyql: arithmetic on non-numbers %s %s %s", l, b.Op, r)
		}
		li, lInt := l.AsScalar().AsInt()
		ri, rInt := r.AsScalar().AsInt()
		bothInt := lInt && rInt
		var f float64
		switch b.Op {
		case "+":
			f = lf + rf
		case "-":
			f = lf - rf
		case "*":
			f = lf * rf
		case "/":
			if rf == 0 {
				return NullValue, fmt.Errorf("hyql: division by zero")
			}
			if bothInt {
				return Scalar(lpg.Int(li / ri)), nil
			}
			f = lf / rf
		case "%":
			if !bothInt || ri == 0 {
				return NullValue, fmt.Errorf("hyql: %% requires nonzero integers")
			}
			return Scalar(lpg.Int(li % ri)), nil
		}
		if bothInt && b.Op != "/" {
			return Scalar(lpg.Int(int64(f))), nil
		}
		return Scalar(lpg.Float(f)), nil
	}
	return NullValue, fmt.Errorf("hyql: unknown operator %q", b.Op)
}

// aggregateFuncs are the functions that trigger implicit grouping in RETURN.
var aggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
	"collect": true,
}

// isAggregate reports whether the expression contains an aggregate call.
func isAggregate(e Expr) bool {
	switch x := e.(type) {
	case Call:
		if x.Namespace == "" && aggregateFuncs[x.Name] {
			return true
		}
		for _, a := range x.Args {
			if isAggregate(a) {
				return true
			}
		}
	case Unary:
		return isAggregate(x.X)
	case Binary:
		return isAggregate(x.L) || isAggregate(x.R)
	}
	return false
}

// evalCall evaluates non-aggregate function calls (aggregates are handled by
// the executor and never reach here).
func evalCall(c Call, ctx *evalCtx) (Value, error) {
	if c.Namespace == "ts" {
		return evalTSCall(c, ctx)
	}
	if c.Namespace != "" {
		return NullValue, fmt.Errorf("hyql: unknown namespace %q", c.Namespace)
	}
	if aggregateFuncs[c.Name] {
		return NullValue, fmt.Errorf("hyql: aggregate %s() not allowed here", c.Name)
	}
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		v, err := eval(a, ctx)
		if err != nil {
			return NullValue, err
		}
		args[i] = v
	}
	switch c.Name {
	case "abs":
		if len(args) != 1 {
			return NullValue, fmt.Errorf("hyql: abs expects 1 argument")
		}
		if f, ok := args[0].AsFloat(); ok {
			if i, isInt := args[0].AsScalar().AsInt(); isInt {
				if i < 0 {
					i = -i
				}
				return Scalar(lpg.Int(i)), nil
			}
			return Scalar(lpg.Float(math.Abs(f))), nil
		}
		return NullValue, nil
	case "length":
		if len(args) != 1 {
			return NullValue, fmt.Errorf("hyql: length expects 1 argument")
		}
		switch args[0].Kind() {
		case VPath:
			return Scalar(lpg.Int(int64(len(args[0].path)))), nil
		case VList:
			return Scalar(lpg.Int(int64(len(args[0].List())))), nil
		case VScalar:
			if s, ok := args[0].AsScalar().AsString(); ok {
				return Scalar(lpg.Int(int64(len(s)))), nil
			}
		}
		return NullValue, nil
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return NullValue, nil
	case "exists":
		if len(args) != 1 {
			return NullValue, fmt.Errorf("hyql: exists expects 1 argument")
		}
		return Scalar(lpg.Bool(!args[0].IsNull())), nil
	case "label":
		if len(args) == 1 {
			if n := args[0].Node(); n != nil && len(n.Labels) > 0 {
				return Scalar(lpg.Str(n.Labels[0])), nil
			}
			if e := args[0].Edge(); e != nil {
				return Scalar(lpg.Str(e.Label)), nil
			}
		}
		return NullValue, nil
	case "id":
		if len(args) == 1 {
			if n := args[0].Node(); n != nil {
				return Scalar(lpg.Int(int64(n.ID))), nil
			}
			if e := args[0].Edge(); e != nil {
				return Scalar(lpg.Int(int64(e.ID))), nil
			}
		}
		return NullValue, nil
	case "tofloat":
		if len(args) == 1 {
			if f, ok := args[0].AsFloat(); ok {
				return Scalar(lpg.Float(f)), nil
			}
		}
		return NullValue, nil
	}
	return NullValue, fmt.Errorf("hyql: unknown function %s()", c.Name)
}

// resolveSeries extracts the univariate series an expression refers to:
// either a TS element binding (its δ series' first variable) or a
// series-valued property. The series may be held in the graph or by reference
// in a store; callers see only the Series interface.
func resolveSeries(e Expr, ctx *evalCtx) (Series, error) {
	switch x := e.(type) {
	case Ident:
		b, ok := ctx.row[x.Name]
		if !ok {
			return nil, fmt.Errorf("hyql: unknown identifier %q", x.Name)
		}
		var val lpg.Value
		switch b.Kind() {
		case VNode:
			val = b.Node().Prop("_series")
		case VEdge:
			val = b.Edge().Prop("_series")
		default:
			return nil, fmt.Errorf("hyql: %q has no series", x.Name)
		}
		if s, ok := seriesOf(val); ok {
			return s, nil
		}
		if val.IsSeries() {
			return nil, fmt.Errorf("hyql: %q has an empty series", x.Name)
		}
		return nil, fmt.Errorf("hyql: %q is not a time-series element", x.Name)
	case PropAccess:
		v, err := eval(x, ctx)
		if err != nil {
			return nil, err
		}
		if s, ok := seriesOf(v.AsScalar()); ok {
			return s, nil
		}
		return nil, fmt.Errorf("hyql: %s.%s is not a series property", x.On, x.Key)
	}
	return nil, fmt.Errorf("hyql: expected a series reference, got %s", ExprText(e))
}

// asTime coerces an evaluated argument into a timestamp: integers are epoch
// milliseconds, strings are RFC 3339 or "2006-01-02" dates.
func asTime(v Value) (ts.Time, error) {
	sc := v.AsScalar()
	if i, ok := sc.AsInt(); ok {
		return ts.Time(i), nil
	}
	if s, ok := sc.AsString(); ok {
		for _, layout := range []string{gotime.RFC3339, "2006-01-02"} {
			if t, err := gotime.Parse(layout, s); err == nil {
				return ts.FromGoTime(t), nil
			}
		}
		return 0, fmt.Errorf("hyql: cannot parse time %q", s)
	}
	return 0, fmt.Errorf("hyql: expected a time, got %s", v)
}

// evalTSCall evaluates ts.* functions. Each resolves its series to a Series
// handle and works through that interface only; the unwindowed forms are the
// windowed ones over every instant.
func evalTSCall(c Call, ctx *evalCtx) (Value, error) {
	need := func(n int) error {
		if len(c.Args) != n {
			return fmt.Errorf("hyql: ts.%s expects %d arguments, got %d", c.Name, n, len(c.Args))
		}
		return nil
	}
	// window evaluates the optional (start, end) argument pair at positions
	// i and i+1; absent, the window is the whole series.
	window := func(windowed bool, i int) (ts.Time, ts.Time, error) {
		if !windowed {
			return wholeStart, wholeEnd, nil
		}
		return evalTimePair(c.Args[i], c.Args[i+1], ctx)
	}
	float := func(f float64) Value {
		if math.IsNaN(f) {
			return NullValue
		}
		return Scalar(lpg.Float(f))
	}
	// Aggregations over one series: ts.f(x) or ts.f(x, start, end).
	if agg, err := ts.ParseAggFunc(c.Name); err == nil {
		if len(c.Args) != 1 && len(c.Args) != 3 {
			return NullValue, fmt.Errorf("hyql: ts.%s expects (series) or (series, start, end)", c.Name)
		}
		s, err := resolveSeries(c.Args[0], ctx)
		if err != nil {
			return NullValue, err
		}
		start, end, err := window(len(c.Args) == 3, 1)
		if err != nil {
			return NullValue, err
		}
		return float(s.Aggregate(agg, start, end)), nil
	}
	switch c.Name {
	case "slope":
		if len(c.Args) != 1 {
			return NullValue, fmt.Errorf("hyql: ts.slope expects (series)")
		}
		s, err := resolveSeries(c.Args[0], ctx)
		if err != nil {
			return NullValue, err
		}
		_, slope := s.Range(wholeStart, wholeEnd).Trend()
		return float(slope), nil
	case "corr":
		// ts.corr(a, b, bucket) over the whole series, or
		// ts.corr(a, b, start, end, bucket) windowed to [start, end).
		if len(c.Args) != 3 && len(c.Args) != 5 {
			return NullValue, fmt.Errorf("hyql: ts.corr expects (a, b, bucket) or (a, b, start, end, bucket)")
		}
		a, err := resolveSeries(c.Args[0], ctx)
		if err != nil {
			return NullValue, err
		}
		b, err := resolveSeries(c.Args[1], ctx)
		if err != nil {
			return NullValue, err
		}
		windowed := len(c.Args) == 5
		start, end, err := window(windowed, 2)
		if err != nil {
			return NullValue, err
		}
		bucketV, err := eval(c.Args[len(c.Args)-1], ctx)
		if err != nil {
			return NullValue, err
		}
		bucket, err := asTime(bucketV)
		if err != nil {
			return NullValue, err
		}
		if !windowed {
			// No window for a store to bucket over: correlate the samples
			// themselves.
			return float(ts.Correlation(a.Range(start, end), b.Range(start, end), bucket)), nil
		}
		return float(a.Corr(b, start, end, bucket)), nil
	case "resample":
		// ts.resample(s, bucket, agg) over the whole series, or
		// ts.resample(s, start, end, bucket, agg) windowed to [start, end):
		// bucket-aligned windows under the named aggregate, as a list of
		// [bucket_start, value] pairs — the HyQL face of the engine's
		// continuous-aggregate pushdown (element-wise identical to it).
		if len(c.Args) != 3 && len(c.Args) != 5 {
			return NullValue, fmt.Errorf("hyql: ts.resample expects (series, bucket, agg) or (series, start, end, bucket, agg)")
		}
		s, err := resolveSeries(c.Args[0], ctx)
		if err != nil {
			return NullValue, err
		}
		windowed := len(c.Args) == 5
		start, end, err := window(windowed, 1)
		if err != nil {
			return NullValue, err
		}
		bucketV, err := eval(c.Args[len(c.Args)-2], ctx)
		if err != nil {
			return NullValue, err
		}
		bucket, err := asTime(bucketV)
		if err != nil {
			return NullValue, err
		}
		if bucket <= 0 {
			return NullValue, fmt.Errorf("hyql: ts.resample bucket must be positive")
		}
		aggV, err := eval(c.Args[len(c.Args)-1], ctx)
		if err != nil {
			return NullValue, err
		}
		aggName, ok := aggV.AsScalar().AsString()
		if !ok {
			return NullValue, fmt.Errorf("hyql: ts.resample aggregate must be a string")
		}
		agg, err := ts.ParseAggFunc(aggName)
		if err != nil {
			return NullValue, err
		}
		if !windowed {
			return pointList(s.Range(start, end).Resample(bucket, agg), nil), nil
		}
		return pointList(s.Resample(start, end, bucket, agg), nil), nil
	case "points":
		// ts.points(s) or ts.points(s, start, end): the raw observations as a
		// list of [timestamp, value] pairs, in time order.
		if len(c.Args) != 1 && len(c.Args) != 3 {
			return NullValue, fmt.Errorf("hyql: ts.points expects (series) or (series, start, end)")
		}
		s, err := resolveSeries(c.Args[0], ctx)
		if err != nil {
			return NullValue, err
		}
		start, end, err := window(len(c.Args) == 3, 1)
		if err != nil {
			return NullValue, err
		}
		return pointList(s.Range(start, end), nil), nil
	case "below":
		// ts.below(s, start, end, threshold): the windowed observations with
		// value < threshold, as a list of [timestamp, value] pairs.
		if err := need(4); err != nil {
			return NullValue, err
		}
		s, err := resolveSeries(c.Args[0], ctx)
		if err != nil {
			return NullValue, err
		}
		start, end, err := evalTimePair(c.Args[1], c.Args[2], ctx)
		if err != nil {
			return NullValue, err
		}
		thV, err := eval(c.Args[3], ctx)
		if err != nil {
			return NullValue, err
		}
		th, ok := thV.AsFloat()
		if !ok {
			return NullValue, fmt.Errorf("hyql: ts.below threshold must be numeric")
		}
		keep := func(v float64) bool { return v < th }
		return pointList(s.Range(start, end), keep), nil
	case "anomalies":
		if err := need(2); err != nil {
			return NullValue, err
		}
		s, err := resolveSeries(c.Args[0], ctx)
		if err != nil {
			return NullValue, err
		}
		thV, err := eval(c.Args[1], ctx)
		if err != nil {
			return NullValue, err
		}
		th, ok := thV.AsFloat()
		if !ok {
			return NullValue, fmt.Errorf("hyql: ts.anomalies threshold must be numeric")
		}
		return Scalar(lpg.Int(int64(len(s.Range(wholeStart, wholeEnd).ZScoreAnomalies(th))))), nil
	case "len":
		if err := need(1); err != nil {
			return NullValue, err
		}
		s, err := resolveSeries(c.Args[0], ctx)
		if err != nil {
			return NullValue, err
		}
		return Scalar(lpg.Int(int64(s.Aggregate(ts.AggCount, wholeStart, wholeEnd)))), nil
	}
	return NullValue, fmt.Errorf("hyql: unknown function ts.%s (have %s)", c.Name, strings.Join(tsFuncNames, ", "))
}

var tsFuncNames = []string{
	"mean", "sum", "min", "max", "count", "std", "median", "first", "last",
	"slope", "corr", "anomalies", "len", "points", "below", "resample",
}

// pointList renders a series as a list of [timestamp, value] pairs, keeping
// only points that pass the filter (nil keeps everything).
func pointList(s *ts.Series, keep func(float64) bool) Value {
	out := make([]Value, 0, s.Len())
	for i := 0; i < s.Len(); i++ {
		v := s.ValueAt(i)
		if keep != nil && !keep(v) {
			continue
		}
		out = append(out, ListValue([]Value{
			Scalar(lpg.Int(int64(s.TimeAt(i)))),
			Scalar(lpg.Float(v)),
		}))
	}
	return ListValue(out)
}

func evalTimePair(a, b Expr, ctx *evalCtx) (ts.Time, ts.Time, error) {
	av, err := eval(a, ctx)
	if err != nil {
		return 0, 0, err
	}
	bv, err := eval(b, ctx)
	if err != nil {
		return 0, 0, err
	}
	at, err := asTime(av)
	if err != nil {
		return 0, 0, err
	}
	bt, err := asTime(bv)
	if err != nil {
		return 0, 0, err
	}
	return at, bt, nil
}
