package queryir

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cachemind/internal/db"
	"cachemind/internal/db/dbtest"
	"cachemind/internal/stats"
	"cachemind/internal/testfix"
	"cachemind/internal/trace"
)

// refExecute is the naive reference executor: it reassembles every
// candidate row with Frame.Record, re-checks every filter, and
// aggregates through the slice-based stats functions. Error order
// matches Execute's.
func refExecute(store *db.Store, q Query) (Result, error) {
	f, ok := store.Frame(q.Workload, q.Policy)
	if !ok {
		return Result{}, fmt.Errorf("queryir: no trace for workload %q under policy %q", q.Workload, q.Policy)
	}
	if q.Agg.needsField() && q.Field == "" {
		return Result{}, fmt.Errorf("queryir: aggregation %v requires a field", q.Agg)
	}
	if q.PC != nil && !f.HasPC(*q.PC) {
		return Result{}, &PCNotFoundError{PC: *q.PC, Workload: q.Workload, Policy: q.Policy, Store: store}
	}
	var matched []int
	for i := 0; i < f.Len(); i++ {
		r := f.Record(i)
		if (q.PC == nil || r.PC == *q.PC) &&
			(q.Addr == nil || r.Addr == *q.Addr&^uint64(trace.LineSize-1)) &&
			(q.Set == nil || r.Set == *q.Set) &&
			(q.Hit == nil || r.Hit == *q.Hit) {
			matched = append(matched, i)
		}
	}
	if q.Addr != nil && len(matched) == 0 {
		return Result{}, &AddrNotFoundError{PC: q.PC, Addr: *q.Addr, Workload: q.Workload, Policy: q.Policy}
	}
	res := Result{MatchCount: len(matched), Frame: f}
	if q.GroupBy == "" {
		return refFlat(f, q, matched, res)
	}
	if q.GroupBy != "pc" && q.GroupBy != "set" {
		return Result{}, fmt.Errorf("queryir: unknown GroupBy %q", q.GroupBy)
	}
	groups := map[uint64][]int{}
	for _, i := range matched {
		r := f.Record(i)
		k := r.PC
		if q.GroupBy == "set" {
			k = uint64(r.Set)
		}
		groups[k] = append(groups[k], i)
	}
	if q.Agg == AggDistinct {
		keys := []uint64{}
		for k := range groups {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if q.Limit > 0 && len(keys) > q.Limit {
			keys = keys[:q.Limit]
		}
		res.Kind, res.Keys = KindKeys, keys
		return res, nil
	}
	out := []GroupRow{}
	for k, rows := range groups {
		sub := q
		sub.GroupBy = ""
		r, err := refFlat(f, sub, rows, Result{})
		if err != nil {
			return Result{}, err
		}
		out = append(out, GroupRow{Key: k, Value: r.Scalar, Count: len(rows)})
	}
	sort.Slice(out, func(i, j int) bool {
		if q.SortDesc && out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Key < out[j].Key
	})
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	res.Kind, res.Groups = KindGroups, out
	return res, nil
}

func refFlat(f *db.Frame, q Query, matched []int, res Result) (Result, error) {
	res.Kind = KindScalar
	hits := 0
	var vals []float64
	for _, i := range matched {
		if f.Record(i).Hit {
			hits++
		}
		if v, ok := f.NumericValue(q.Field, i); ok {
			vals = append(vals, v)
		}
	}
	n := len(matched)
	switch q.Agg {
	case AggRows:
		res.Kind, res.Rows = KindRows, matched
		if q.Limit > 0 && len(matched) > q.Limit {
			res.Rows = matched[:q.Limit]
		}
	case AggCount:
		res.Scalar = float64(n)
	case AggHitCount:
		res.Scalar = float64(hits)
	case AggMissCount:
		res.Scalar = float64(n - hits)
	case AggHitRate:
		res.Scalar = stats.Pct(hits, n)
	case AggMissRate:
		res.Scalar = stats.Pct(n-hits, n)
	case AggMean:
		res.Scalar = stats.Mean(vals)
	case AggStd:
		res.Scalar = stats.StdDev(vals)
	case AggSum:
		for _, v := range vals {
			res.Scalar += v
		}
	case AggMin:
		res.Scalar, _ = stats.MinMax(vals)
	case AggMax:
		_, res.Scalar = stats.MinMax(vals)
	case AggMedian:
		res.Scalar = stats.Median(vals)
	case AggDistinct:
		return Result{}, fmt.Errorf("queryir: distinct requires GroupBy (\"pc\" or \"set\")")
	default:
		return Result{}, fmt.Errorf("queryir: unsupported aggregation %v", q.Agg)
	}
	return res, nil
}

// sameResult compares two executions field by field, floats by bits.
func sameResult(got, want Result, gotErr, wantErr error) error {
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("error %v, reference %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if reflect.TypeOf(gotErr) != reflect.TypeOf(wantErr) || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("error %T %q, reference %T %q", gotErr, gotErr, wantErr, wantErr)
		}
		return nil
	}
	switch {
	case got.Kind != want.Kind:
		return fmt.Errorf("kind %v, reference %v", got.Kind, want.Kind)
	case math.Float64bits(got.Scalar) != math.Float64bits(want.Scalar):
		return fmt.Errorf("scalar %v, reference %v", got.Scalar, want.Scalar)
	case got.MatchCount != want.MatchCount:
		return fmt.Errorf("match count %d, reference %d", got.MatchCount, want.MatchCount)
	case !slices.Equal(got.Rows, want.Rows):
		return fmt.Errorf("rows %v, reference %v", got.Rows, want.Rows)
	case !slices.Equal(got.Keys, want.Keys):
		return fmt.Errorf("keys %v, reference %v", got.Keys, want.Keys)
	case len(got.Groups) != len(want.Groups):
		return fmt.Errorf("%d groups, reference %d", len(got.Groups), len(want.Groups))
	case got.Frame != want.Frame:
		return fmt.Errorf("frame %p, reference %p", got.Frame, want.Frame)
	}
	for i, g := range got.Groups {
		w := want.Groups[i]
		if g.Key != w.Key || g.Count != w.Count || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			return fmt.Errorf("group %d = %+v, reference %+v", i, g, w)
		}
	}
	return nil
}

// TestExecuteMatchesReference runs the column executor and the naive
// reference over every aggregation x filter shape x GroupBy x SortDesc
// x Limit, with filter values drawn at random from the fixture store,
// and requires identical results, errors included.
func TestExecuteMatchesReference(t *testing.T) {
	store := dbtest.Store(t, dbtest.Config{
		Workloads: []string{"astar", "lbm", "mcf"}, Policies: []string{"lru", "belady"}, Accesses: 6000,
	})
	rng := rand.New(rand.NewSource(17))
	aggs := []AggKind{AggRows, AggCount, AggHitCount, AggMissCount, AggHitRate, AggMissRate,
		AggMean, AggStd, AggSum, AggMin, AggMax, AggMedian, AggDistinct, AggKind(99)}
	fields := []string{db.ColAccessReuse, db.ColEvictedReuseNum, db.ColRecency, db.ColIsMiss, db.ColSet, db.ColFunctionName}
	filters := []string{"none", "pc", "pc+addr", "set", "hit", "pc+set", "pc+hit", "set+hit", "addr", "pc+addr+hit",
		"missing-pc", "missing-addr"}
	ctx := context.Background()
	checked := 0
	for _, filter := range filters {
		for _, agg := range aggs {
			for _, groupBy := range []string{"", "pc", "set"} {
				for _, desc := range []bool{false, true} {
					for _, limit := range []int{0, 3} {
						q := randomQuery(rng, store, filter)
						q.Agg, q.GroupBy, q.SortDesc, q.Limit = agg, groupBy, desc, limit
						if agg.needsField() {
							q.Field = fields[rng.Intn(len(fields))]
						}
						got, gotErr := Execute(ctx, store, q)
						want, wantErr := refExecute(store, q)
						if err := sameResult(got, want, gotErr, wantErr); err != nil {
							t.Fatalf("%s %v group=%q desc=%v limit=%d %s: %v", filter, agg, groupBy, desc, limit, describe(q), err)
						}
						checked++
					}
				}
			}
		}
	}
	// The error paths the filters exist for must have been taken.
	for _, q := range []Query{
		randomQuery(rng, store, "missing-pc"), randomQuery(rng, store, "missing-addr"),
	} {
		q.Agg = AggCount
		_, err := Execute(ctx, store, q)
		var pcErr *PCNotFoundError
		var addrErr *AddrNotFoundError
		if !errors.As(err, &pcErr) && !errors.As(err, &addrErr) {
			t.Errorf("%s: err = %v, want a not-found error", describe(q), err)
		}
	}
	t.Logf("%d queries identical to the reference", checked)
}

// randomQuery draws a frame and filter values for one filter shape.
// Values come from a random row, so most filters match something; set
// and hit combinations with PCs may legitimately match nothing.
func randomQuery(rng *rand.Rand, store *db.Store, filter string) Query {
	keys := store.Keys()
	f, _ := store.FrameByKey(keys[rng.Intn(len(keys))])
	q := Query{Workload: f.Workload, Policy: f.Policy}
	r := f.Record(rng.Intn(f.Len()))
	pc, addr, set, hit := r.PC, r.Addr+uint64(rng.Intn(trace.LineSize)), r.Set, rng.Intn(2) == 0
	if rng.Intn(4) == 0 {
		set = f.Sets()[rng.Intn(len(f.Sets()))] // often not one of pc's sets
	}
	for _, part := range strings.Split(filter, "+") {
		switch part {
		case "pc":
			q.PC = &pc
		case "addr":
			q.Addr = &addr
		case "set":
			q.Set = &set
		case "hit":
			q.Hit = &hit
		case "missing-pc":
			missing := uint64(0xdead0000)
			q.PC = &missing
		case "missing-addr":
			missing := uint64(0xdead0000)
			q.PC, q.Addr = &pc, &missing
		}
	}
	return q
}

func describe(q Query) string {
	s := q.Workload + "/" + q.Policy
	if q.PC != nil {
		s += fmt.Sprintf(" pc=%#x", *q.PC)
	}
	if q.Addr != nil {
		s += fmt.Sprintf(" addr=%#x", *q.Addr)
	}
	if q.Set != nil {
		s += fmt.Sprintf(" set=%d", *q.Set)
	}
	if q.Hit != nil {
		s += fmt.Sprintf(" hit=%v", *q.Hit)
	}
	if q.Field != "" {
		s += " field=" + q.Field
	}
	return s
}

// TestScalarAggregationAllocs pins the streaming aggregations to a
// constant allocation count, independent of how many rows match: a
// one-address slice, a hot PC and the whole frame all cost the same.
func TestScalarAggregationAllocs(t *testing.T) {
	store := testfix.Store()
	f, _ := store.Frame("lbm", "lru")
	pc := uint64(lbmScanPC)
	addr := f.AddrAt(int(f.RowsForPC(pc)[0]))
	miss := false
	shapes := []Query{
		{PC: &pc, Addr: &addr},
		{PC: &pc},
		{PC: &pc, Hit: &miss},
		{},
	}
	ctx := context.Background()
	for _, agg := range []AggKind{AggCount, AggHitCount, AggMissCount, AggHitRate, AggMissRate, AggMean, AggSum, AggMin, AggMax} {
		for _, shape := range shapes {
			q := shape
			q.Workload, q.Policy, q.Agg = "lbm", "lru", agg
			if agg.needsField() {
				q.Field = db.ColEvictedReuse
			}
			res, err := Execute(ctx, store, q)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() { _, _ = Execute(ctx, store, q) })
			if allocs != 0 {
				t.Errorf("%v over %d matching rows (%s): %v allocs/op, want 0", agg, res.MatchCount, describe(q), allocs)
			}
		}
	}
}
