// Package queryir defines the typed retrieval-query representation and
// its executor. The paper's Ranger retriever has GPT-4o emit Python that
// slices the trace database; offline, CacheMind's semantic parser
// (internal/nlu) compiles natural language into these declarative query
// values instead, and this package executes them against the store — the
// same "generate a retrieval program, run it, return grounded strings"
// loop with a verifiable, sandboxed program representation.
package queryir

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"cachemind/internal/db"
	"cachemind/internal/stats"
	"cachemind/internal/trace"
)

// AggKind enumerates the aggregations a query can request.
type AggKind int

const (
	// AggRows returns matching rows without aggregation.
	AggRows AggKind = iota
	AggCount
	AggHitCount
	AggMissCount
	AggHitRate  // percent
	AggMissRate // percent
	AggMean     // over Field
	AggStd      // over Field
	AggSum      // over Field
	AggMin      // over Field
	AggMax      // over Field
	AggMedian   // over Field
	// AggDistinct lists distinct values of GroupBy ("pc" or "set").
	AggDistinct
)

var aggNames = map[AggKind]string{
	AggRows: "rows", AggCount: "count", AggHitCount: "hit_count",
	AggMissCount: "miss_count", AggHitRate: "hit_rate", AggMissRate: "miss_rate",
	AggMean: "mean", AggStd: "std", AggSum: "sum", AggMin: "min", AggMax: "max",
	AggMedian:   "median",
	AggDistinct: "distinct",
}

// String returns the aggregation's name.
func (a AggKind) String() string {
	if n, ok := aggNames[a]; ok {
		return n
	}
	return fmt.Sprintf("AggKind(%d)", int(a))
}

// needsField reports whether the aggregation reads a numeric column.
func (a AggKind) needsField() bool {
	switch a {
	case AggMean, AggStd, AggSum, AggMin, AggMax, AggMedian:
		return true
	}
	return false
}

// Query is one declarative retrieval request against a single
// (workload, policy) frame.
type Query struct {
	Workload string
	Policy   string

	// Optional symbolic filters.
	PC   *uint64
	Addr *uint64 // line-aligned automatically
	Set  *int
	Hit  *bool // filter to hits (true) or misses (false)

	// Agg selects the aggregation; Field names the numeric column for
	// mean/std/sum/min/max.
	Agg   AggKind
	Field string

	// GroupBy ("pc" or "set") computes the aggregation per group, or
	// enumerates distinct keys for AggDistinct.
	GroupBy string

	// SortDesc orders grouped output by value descending (default is
	// key ascending); Limit truncates grouped or row output (0 = all).
	SortDesc bool
	Limit    int
}

// ResultKind discriminates Result payloads.
type ResultKind int

const (
	KindScalar ResultKind = iota
	KindRows
	KindGroups
	KindKeys
)

// GroupRow is one group's aggregated value.
type GroupRow struct {
	Key   uint64 // PC or set index
	Value float64
	Count int
}

// Result is an executed query's payload.
type Result struct {
	Kind       ResultKind
	Scalar     float64
	MatchCount int
	// Rows holds matched record indices into the frame (capped by
	// Query.Limit when set).
	Rows []int
	// Groups holds per-group aggregates for GroupBy queries.
	Groups []GroupRow
	// Keys holds distinct PCs or set indices for AggDistinct.
	Keys []uint64
	// Frame is the frame the query ran against.
	Frame *db.Frame
}

// PCRef formats a key as the hex string used in answers.
func PCRef(pc uint64) string { return fmt.Sprintf("0x%x", pc) }

// Execute runs q against the store. Errors carry enough context for the
// generator to reject false premises (unknown workload/policy, PC absent
// from the selected trace). ctx is the request context: a query that
// starts after cancellation returns ctx's error immediately, which is
// the db query path's cancellation checkpoint — retrievers fan a
// question out into many Execute calls, so a canceled request stops
// between queries instead of scanning every remaining frame.
//
// The executor reads the frame's columns and indexes directly: scalar
// aggregations stream over the narrowest index's rows (every row when
// the query has no index-backed filter) and build no row slice; only
// row listings, medians, standard deviations and grouped output
// materialize slices.
func Execute(ctx context.Context, store *db.Store, q Query) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	frame, ok := store.Frame(q.Workload, q.Policy)
	if !ok {
		return Result{}, fmt.Errorf("queryir: no trace for workload %q under policy %q", q.Workload, q.Policy)
	}
	if q.Agg.needsField() && q.Field == "" {
		return Result{}, fmt.Errorf("queryir: aggregation %v requires a field", q.Agg)
	}
	if q.PC != nil && !frame.HasPC(*q.PC) {
		return Result{}, &PCNotFoundError{PC: *q.PC, Workload: q.Workload, Policy: q.Policy, Store: store}
	}

	sel := plan(frame, q)
	if q.Addr != nil && !sel.any() {
		return Result{}, &AddrNotFoundError{PC: q.PC, Addr: *q.Addr, Workload: q.Workload, Policy: q.Policy}
	}
	res := Result{Frame: frame}
	if q.GroupBy != "" {
		return executeGrouped(q, sel, res)
	}
	return executeFlat(q, sel, res)
}

// PCNotFoundError signals a false premise: the PC is absent from the
// requested trace. It records which workloads do contain the PC so the
// generator can explain the rejection.
type PCNotFoundError struct {
	PC       uint64
	Workload string
	Policy   string
	Store    *db.Store
}

func (e *PCNotFoundError) Error() string {
	where := e.Store.WorkloadsWithPC(e.PC)
	if len(where) == 0 {
		return fmt.Sprintf("PC %s does not appear in any trace", PCRef(e.PC))
	}
	return fmt.Sprintf("PC %s does not appear in workload %s (it appears in %v)", PCRef(e.PC), e.Workload, where)
}

// AddrNotFoundError signals that the requested (PC, address) pair never
// occurs in the trace.
type AddrNotFoundError struct {
	PC       *uint64
	Addr     uint64
	Workload string
	Policy   string
}

func (e *AddrNotFoundError) Error() string {
	if e.PC != nil {
		return fmt.Sprintf("PC %s never accesses address 0x%x in workload %s under %s",
			PCRef(*e.PC), e.Addr, e.Workload, e.Policy)
	}
	return fmt.Sprintf("address 0x%x is never accessed in workload %s under %s", e.Addr, e.Workload, e.Policy)
}

// selection is the set of rows a query visits: the rows of the
// narrowest index its filters allow (every row when none applies),
// narrowed by the residual predicates that index does not already
// guarantee.
type selection struct {
	f    *db.Frame
	all  bool    // visit rows 0..n-1; rows is unused
	rows []int32 // the index's rows, ascending
	n    int     // candidate count

	residual  bool // any residual predicate is set
	checkAddr bool
	checkSet  bool
	checkHit  bool
	addr      uint64
	set       int
	hit       bool
}

// plan picks the narrowest index for q's filters: (PC, address), then
// PC, then set. Filters the chosen index guarantees are not re-checked
// per row; the PC filter always has an index.
func plan(f *db.Frame, q Query) selection {
	s := selection{f: f}
	switch {
	case q.PC != nil && q.Addr != nil:
		s.rows = f.RowsForPCAddr(*q.PC, *q.Addr)
	case q.PC != nil:
		s.rows = f.RowsForPC(*q.PC)
	case q.Set != nil:
		s.rows = f.RowsForSet(*q.Set)
	default:
		s.all = true
	}
	s.n = len(s.rows)
	if s.all {
		s.n = f.Len()
	}
	if q.Addr != nil && q.PC == nil {
		s.checkAddr, s.addr = true, *q.Addr&^uint64(trace.LineSize-1)
	}
	if q.Set != nil && q.PC != nil {
		s.checkSet, s.set = true, *q.Set
	}
	if q.Hit != nil {
		s.checkHit, s.hit = true, *q.Hit
	}
	s.residual = s.checkAddr || s.checkSet || s.checkHit
	return s
}

// row returns the k-th candidate row.
func (s *selection) row(k int) int {
	if s.all {
		return k
	}
	return int(s.rows[k])
}

// match applies the residual predicates to row i.
func (s *selection) match(i int) bool {
	if !s.residual {
		return true
	}
	f := s.f
	return (!s.checkAddr || f.AddrAt(i) == s.addr) &&
		(!s.checkSet || f.SetAt(i) == s.set) &&
		(!s.checkHit || f.HitAt(i) == s.hit)
}

// any reports whether at least one row matches.
//
//cachemind:noalloc
func (s *selection) any() bool {
	for k := 0; k < s.n; k++ {
		if s.match(s.row(k)) {
			return true
		}
	}
	return false
}

// countHits counts the matching rows and the hits among them.
//
//cachemind:noalloc
func (s *selection) countHits() (n, hits int) {
	f := s.f
	for k := 0; k < s.n; k++ {
		i := s.row(k)
		if !s.match(i) {
			continue
		}
		n++
		h := 0 // branch-free: hit or miss is unpredictable per row
		if f.HitAt(i) {
			h = 1
		}
		hits += h
	}
	return n, hits
}

// moments is a streaming aggregate of a numeric column: the count,
// sum, minimum and maximum of the values present, accumulated in row
// order so sums and means equal the slice-based stats functions bit for
// bit.
type moments struct {
	n             int
	sum, min, max float64
}

// fold aggregates col over the matching rows; it also returns the
// number of matching rows, values present or not.
//
//cachemind:noalloc
func (s *selection) fold(col db.Numeric) (a moments, matched int) {
	for k := 0; k < s.n; k++ {
		i := s.row(k)
		if !s.match(i) {
			continue
		}
		matched++
		v, ok := col.At(i)
		if !ok {
			continue
		}
		if a.n == 0 {
			a.min, a.max = v, v
		}
		if v < a.min {
			a.min = v
		}
		if v > a.max {
			a.max = v
		}
		a.sum += v
		a.n++
	}
	return a, matched
}

// appendRows appends up to limit matching rows to dst, ascending.
func appendRows[T int | int32](s *selection, dst []T, limit int) []T {
	for k := 0; k < s.n && len(dst) < limit; k++ {
		if i := s.row(k); s.match(i) {
			dst = append(dst, T(i))
		}
	}
	return dst
}

// appendValues appends col's present values over the matching rows to
// dst, in row order.
func (s *selection) appendValues(col db.Numeric, dst []float64) []float64 {
	for k := 0; k < s.n; k++ {
		i := s.row(k)
		if !s.match(i) {
			continue
		}
		if v, ok := col.At(i); ok {
			dst = append(dst, v)
		}
	}
	return dst
}

func executeFlat(q Query, s selection, res Result) (Result, error) {
	if q.Agg == AggRows {
		n, _ := s.countHits()
		limit := n
		if q.Limit > 0 && q.Limit < n {
			limit = q.Limit
		}
		res.Kind = KindRows
		res.MatchCount = n
		res.Rows = appendRows(&s, make([]int, 0, limit), limit)
		return res, nil
	}
	v, n, err := scalar(q, &s)
	if err != nil {
		return Result{}, err
	}
	res.Kind = KindScalar
	res.Scalar = v
	res.MatchCount = n
	return res, nil
}

// scalar computes q's aggregate over the selection and the number of
// matching rows. Row listings aggregate to 0 (their grouped value).
// An unsupported aggregation still reports the match count, so grouped
// output skips empty groups before reporting it.
func scalar(q Query, s *selection) (v float64, matched int, err error) {
	switch q.Agg {
	case AggRows, AggCount:
		n, _ := s.countHits()
		if q.Agg == AggCount {
			v = float64(n)
		}
		return v, n, nil
	case AggHitCount, AggMissCount, AggHitRate, AggMissRate:
		n, hits := s.countHits()
		switch q.Agg {
		case AggHitCount:
			v = float64(hits)
		case AggMissCount:
			v = float64(n - hits)
		case AggHitRate:
			v = stats.Pct(hits, n)
		default:
			v = stats.Pct(n-hits, n)
		}
		return v, n, nil
	case AggMean, AggSum, AggMin, AggMax:
		col := s.f.NumericColumn(q.Field)
		a, n := s.fold(col)
		switch {
		case a.n == 0:
		case q.Agg == AggMean:
			v = a.sum / float64(a.n)
		case q.Agg == AggSum:
			v = a.sum
		case q.Agg == AggMin:
			v = a.min
		default:
			v = a.max
		}
		return v, n, nil
	case AggStd, AggMedian:
		col := s.f.NumericColumn(q.Field)
		n, _ := s.countHits()
		vals := s.appendValues(col, make([]float64, 0, n))
		if q.Agg == AggStd {
			return stats.StdDev(vals), n, nil
		}
		return stats.Median(vals), n, nil
	case AggDistinct:
		return 0, 0, fmt.Errorf("queryir: distinct requires GroupBy (\"pc\" or \"set\")")
	default:
		n, _ := s.countHits()
		return 0, n, fmt.Errorf("queryir: unsupported aggregation %v", q.Agg)
	}
}

// group is one GroupBy key's selection.
type group struct {
	key uint64
	sel selection
}

// split partitions the selection by GroupBy key ("pc" or "set"),
// ascending. An unfiltered selection walks the per-PC or per-set index
// directly, keeping its residual predicates per group; otherwise the
// matching rows are counting-sorted by key, which keeps each group's
// rows ascending.
func (s *selection) split(by string) []group {
	f := s.f
	var keys []uint64
	if by == "pc" {
		keys = f.PCs()
	} else {
		for _, set := range f.Sets() {
			keys = append(keys, uint64(set))
		}
	}
	out := make([]group, 0, len(keys))
	if s.all {
		for _, k := range keys {
			g := *s
			if by == "pc" {
				g.rows = f.RowsForPC(k)
			} else {
				g.rows = f.RowsForSet(int(k))
			}
			g.all, g.n = false, len(g.rows)
			out = append(out, group{k, g})
		}
		return out
	}

	n, _ := s.countHits()
	rows := appendRows(s, make([]int32, 0, n), n)
	ids := make([]int32, len(rows))
	off := make([]int, len(keys)+1)
	for j, r := range rows {
		k := f.PCAt(int(r))
		if by == "set" {
			k = uint64(f.SetAt(int(r)))
		}
		g, _ := slices.BinarySearch(keys, k)
		ids[j] = int32(g)
		off[g+1]++
	}
	for g := 1; g < len(off); g++ {
		off[g] += off[g-1]
	}
	sorted := make([]int32, len(rows))
	next := slices.Clone(off)
	for j, r := range rows {
		sorted[next[ids[j]]] = r
		next[ids[j]]++
	}
	for g, k := range keys {
		if lo, hi := off[g], off[g+1]; hi > lo {
			out = append(out, group{k, selection{f: f, rows: sorted[lo:hi], n: hi - lo}})
		}
	}
	return out
}

func executeGrouped(q Query, s selection, res Result) (Result, error) {
	if q.GroupBy != "pc" && q.GroupBy != "set" {
		return Result{}, fmt.Errorf("queryir: unknown GroupBy %q", q.GroupBy)
	}
	groups := s.split(q.GroupBy)

	if q.Agg == AggDistinct {
		keys := make([]uint64, 0, len(groups))
		for i := range groups {
			if n, _ := groups[i].sel.countHits(); n > 0 {
				keys = append(keys, groups[i].key)
				res.MatchCount += n
			}
		}
		if q.Limit > 0 && len(keys) > q.Limit {
			keys = keys[:q.Limit]
		}
		res.Kind = KindKeys
		res.Keys = keys
		return res, nil
	}

	out := make([]GroupRow, 0, len(groups))
	for i := range groups {
		v, n, err := scalar(q, &groups[i].sel)
		if n == 0 {
			continue
		}
		if err != nil {
			return Result{}, err
		}
		out = append(out, GroupRow{Key: groups[i].key, Value: v, Count: n})
		res.MatchCount += n
	}
	sortGroups(out, q.SortDesc)
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	res.Kind = KindGroups
	res.Groups = out
	return res, nil
}

func sortGroups(gs []GroupRow, byValueDesc bool) {
	sort.Slice(gs, func(i, j int) bool {
		if byValueDesc && gs[i].Value != gs[j].Value {
			return gs[i].Value > gs[j].Value
		}
		return gs[i].Key < gs[j].Key
	})
}
