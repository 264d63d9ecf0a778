// Package db implements CacheMind's external database (paper §4.3): a
// store of eviction-annotated trace frames keyed
// "<workload>_evictions_<policy>", each holding per-access records with
// the paper's 20-column schema, a whole-trace metadata string in the
// paper's exact format, and a human-readable description. Frames carry
// symbolic indexes (per PC, per PC+address, per set) that the Sieve
// retriever's filtering stages and the Ranger query executor use.
package db

import (
	"fmt"
	"math"
	"slices"

	"cachemind/internal/stats"
	"cachemind/internal/symbols"
	"cachemind/internal/trace"
)

// Column names of the frame schema, mirroring the paper's DataFrame
// columns.
const (
	ColPC              = "program_counter"
	ColAddr            = "memory_address"
	ColSet             = "cache_set_id"
	ColEvict           = "evict" // "Cache Hit" / "Cache Miss"
	ColMissType        = "miss_type"
	ColEvictedAddr     = "evicted_address"
	ColRecency         = "accessed_address_recency"
	ColAccessReuse     = "accessed_address_reuse_distance"
	ColEvictedReuse    = "evicted_address_reuse_distance"
	ColFunctionName    = "function_name"
	ColFunctionCode    = "function_code"
	ColAssembly        = "assembly_code"
	ColResidentLines   = "current_cache_lines"
	ColRecentHistory   = "recent_access_history"
	ColEvictionScores  = "cache_line_eviction_scores"
	ColResidentAddrs   = "current_cache_line_addresses"
	ColEvictedReuseNum = "evicted_address_reuse_distance_numeric"
	ColAccessReuseNum  = "accessed_address_reuse_distance_numeric"
	ColRecencyNum      = "accessed_address_recency_numeric"
	ColIsMiss          = "is_miss"
)

// Columns lists every column in schema order.
func Columns() []string {
	return []string{
		ColPC, ColAddr, ColSet, ColEvict, ColMissType, ColEvictedAddr,
		ColRecency, ColAccessReuse, ColEvictedReuse, ColFunctionName,
		ColFunctionCode, ColAssembly, ColResidentLines, ColRecentHistory,
		ColEvictionScores, ColResidentAddrs, ColEvictedReuseNum,
		ColAccessReuseNum, ColRecencyNum, ColIsMiss,
	}
}

// Frame is one (workload, policy) eviction-annotated trace plus indexes,
// stored by column: one pointer-free slice per scalar field of
// trace.Record, the sampled snapshot fields in a sparse side table, and
// CSR row indexes per PC, per (PC, line address) and per set. Row i is
// the stream's i-th access, so a record's Seq is its row number and is
// not stored. Record reassembles a row for callers that want the
// trace.Record view; the query executor and the statistical expert read
// the columns.
type Frame struct {
	Workload string
	Policy   string

	syms *symbols.Table

	// Metadata is the whole-trace summary string in the paper's format.
	Metadata string
	// Description summarizes the workload and policy in prose.
	Description string

	// Summary holds the structured totals behind Metadata.
	Summary FrameSummary

	// Scalar columns, one entry per row.
	pc            []uint64
	addr          []uint64
	set           []int32
	hit           []bool
	missType      []uint8
	evictedAddr   []uint64
	accessReuse   []int64
	evictedReuse  []int64
	recency       []int64
	wrongEviction []bool

	// snapRows lists, ascending, the rows carrying snapshot fields
	// (every SnapshotEvery-th row); snaps[k] belongs to snapRows[k].
	snapRows []int32
	snaps    []snapshot

	byPC     index[uint64]
	byPCAddr addrIndex
	bySet    index[int32]
}

// snapshot holds one row's heavyweight, sampled fields.
type snapshot struct {
	resident []trace.LineRef
	history  []trace.LineRef
	scores   []float64
}

// FrameSummary mirrors replay.Summary without importing it (db consumes
// plain values so the build pipeline owns the dependency direction).
type FrameSummary struct {
	Accesses        int
	Hits            int
	Misses          int
	Evictions       int
	ColdMisses      int
	CapacityMisses  int
	ConflictMisses  int
	WrongEvictions  int
	RecencyMissCorr float64
}

// Key returns the store key "<workload>_evictions_<policy>".
func (f *Frame) Key() string { return Key(f.Workload, f.Policy) }

// Key builds a store key from workload and policy names.
func Key(workload, policy string) string {
	return workload + "_evictions_" + policy
}

// NewFrame stores records by column and indexes them. Row i must be the
// stream's i-th access (Seq == i), as replay.Run produces; records the
// columnar layout cannot hold exactly are rejected. The caller supplies
// the symbol table so PC-level metadata columns resolve; records is not
// retained.
func NewFrame(workloadName, policyName string, records []trace.Record, syms *symbols.Table, sum FrameSummary, description string) (*Frame, error) {
	if len(records) > math.MaxInt32 {
		return nil, fmt.Errorf("db: %d records exceed the int32 row index", len(records))
	}
	n := len(records)
	f := &Frame{
		Workload:      workloadName,
		Policy:        policyName,
		syms:          syms,
		Summary:       sum,
		Description:   description,
		Metadata:      formatMetadata(sum),
		pc:            make([]uint64, n),
		addr:          make([]uint64, n),
		set:           make([]int32, n),
		hit:           make([]bool, n),
		missType:      make([]uint8, n),
		evictedAddr:   make([]uint64, n),
		accessReuse:   make([]int64, n),
		evictedReuse:  make([]int64, n),
		recency:       make([]int64, n),
		wrongEviction: make([]bool, n),
	}
	for i := range records {
		r := &records[i]
		switch {
		case r.Seq != uint64(i):
			return nil, fmt.Errorf("db: record %d has sequence number %d", i, r.Seq)
		case r.Set < 0 || r.Set > math.MaxInt32:
			return nil, fmt.Errorf("db: record %d has set %d outside the int32 column", i, r.Set)
		case r.MissType < 0 || r.MissType > math.MaxUint8:
			return nil, fmt.Errorf("db: record %d has miss type %d outside the uint8 column", i, r.MissType)
		}
		f.pc[i] = r.PC
		f.addr[i] = r.Addr
		f.set[i] = int32(r.Set)
		f.hit[i] = r.Hit
		f.missType[i] = uint8(r.MissType)
		f.evictedAddr[i] = r.EvictedAddr
		f.accessReuse[i] = r.AccessedReuseDist
		f.evictedReuse[i] = r.EvictedReuseDist
		f.recency[i] = r.Recency
		f.wrongEviction[i] = r.WrongEviction
		if r.ResidentLines != nil || r.RecentHistory != nil || r.EvictionScores != nil {
			f.snapRows = append(f.snapRows, int32(i))
			f.snaps = append(f.snaps, snapshot{r.ResidentLines, r.RecentHistory, r.EvictionScores})
		}
	}
	f.byPC = newIndex(f.pc)
	f.byPCAddr = newAddrIndex(&f.byPC, f.addr)
	f.bySet = newIndex(f.set)
	return f, nil
}

// formatMetadata renders the paper's metadata string format.
func formatMetadata(s FrameSummary) string {
	return fmt.Sprintf(
		"Cache Performance Summary: %d total accesses, %d total misses, %s miss rate, "+
			"%s capacity misses, %s conflict misses, %d total evictions, "+
			"%d (%s) wrong evictions where evicted line has lower reuse distance. "+
			"The correlation between accessed address recency and cache misses is %.2f.",
		s.Accesses, s.Misses, stats.Ratio(s.Misses, s.Accesses),
		stats.Ratio(s.CapacityMisses, s.Misses), stats.Ratio(s.ConflictMisses, s.Misses),
		s.Evictions, s.WrongEvictions, stats.Ratio(s.WrongEvictions, s.Evictions),
		s.RecencyMissCorr)
}

// Len returns the number of records.
func (f *Frame) Len() int { return len(f.pc) }

// Record reassembles row i as a trace.Record. Its snapshot slices are
// shared with the frame; do not modify them.
func (f *Frame) Record(i int) trace.Record {
	s := f.snapshot(i)
	return trace.Record{
		Seq:               uint64(i),
		PC:                f.pc[i],
		Addr:              f.addr[i],
		Set:               int(f.set[i]),
		Hit:               f.hit[i],
		MissType:          trace.MissType(f.missType[i]),
		EvictedAddr:       f.evictedAddr[i],
		AccessedReuseDist: f.accessReuse[i],
		EvictedReuseDist:  f.evictedReuse[i],
		Recency:           f.recency[i],
		WrongEviction:     f.wrongEviction[i],
		ResidentLines:     s.resident,
		RecentHistory:     s.history,
		EvictionScores:    s.scores,
	}
}

// snapshot returns row i's sampled fields, all nil for unsampled rows.
func (f *Frame) snapshot(i int) snapshot {
	if k, ok := slices.BinarySearch(f.snapRows, int32(i)); ok {
		return f.snaps[k]
	}
	return snapshot{}
}

// PCAt returns row i's program counter.
func (f *Frame) PCAt(i int) uint64 { return f.pc[i] }

// AddrAt returns row i's line-aligned address.
func (f *Frame) AddrAt(i int) uint64 { return f.addr[i] }

// SetAt returns row i's cache set.
func (f *Frame) SetAt(i int) int { return int(f.set[i]) }

// HitAt reports whether row i hit.
func (f *Frame) HitAt(i int) bool { return f.hit[i] }

// PCs returns all distinct PCs in ascending order.
func (f *Frame) PCs() []uint64 { return slices.Clone(f.byPC.keys) }

// Sets returns all distinct cache sets touched, ascending.
func (f *Frame) Sets() []int {
	out := make([]int, len(f.bySet.keys))
	for k, s := range f.bySet.keys {
		out[k] = int(s)
	}
	return out
}

// RowsForPC returns the record indices for pc, ascending (shared slice;
// do not modify).
func (f *Frame) RowsForPC(pc uint64) []int32 { return f.byPC.lookup(pc) }

// RowsForPCAddr returns record indices matching both pc and the
// line-aligned address, ascending.
func (f *Frame) RowsForPCAddr(pc, addr uint64) []int32 {
	p, ok := slices.BinarySearch(f.byPC.keys, pc)
	if !ok {
		return nil
	}
	return f.byPCAddr.lookup(p, addr&^uint64(trace.LineSize-1))
}

// RowsForSet returns record indices for one cache set, ascending.
func (f *Frame) RowsForSet(set int) []int32 {
	if set < 0 || set > math.MaxInt32 {
		return nil
	}
	return f.bySet.lookup(int32(set))
}

// HasPC reports whether pc appears anywhere in the frame.
func (f *Frame) HasPC(pc uint64) bool {
	_, ok := slices.BinarySearch(f.byPC.keys, pc)
	return ok
}

// Symbols returns the workload's symbol table.
func (f *Frame) Symbols() *symbols.Table { return f.syms }

// Value returns the value of the named column at row i, typed per the
// schema: uint64 for PCs/addresses, int for sets, string for labels,
// int64 for numeric distances, float64 slices for scores, bool-as-int
// for is_miss. Unknown columns return an error.
func (f *Frame) Value(col string, i int) (any, error) {
	pc := f.pc[i]
	switch col {
	case ColPC:
		return pc, nil
	case ColAddr:
		return f.addr[i], nil
	case ColSet:
		return int(f.set[i]), nil
	case ColEvict:
		if f.hit[i] {
			return "Cache Hit", nil
		}
		return "Cache Miss", nil
	case ColMissType:
		return trace.MissType(f.missType[i]).String(), nil
	case ColEvictedAddr:
		return f.evictedAddr[i], nil
	case ColRecency:
		return trace.RecencyLabel(f.recency[i]), nil
	case ColAccessReuse, ColAccessReuseNum:
		return f.accessReuse[i], nil
	case ColEvictedReuse, ColEvictedReuseNum:
		return f.evictedReuse[i], nil
	case ColRecencyNum:
		return f.recency[i], nil
	case ColFunctionName:
		return f.syms.NameAt(pc), nil
	case ColFunctionCode:
		return f.syms.SourceAt(pc), nil
	case ColAssembly:
		return f.syms.Assembly(pc), nil
	case ColResidentLines:
		return f.snapshot(i).resident, nil
	case ColRecentHistory:
		return f.snapshot(i).history, nil
	case ColEvictionScores:
		return f.snapshot(i).scores, nil
	case ColResidentAddrs:
		lines := f.snapshot(i).resident
		addrs := make([]uint64, len(lines))
		for j, l := range lines {
			addrs[j] = l.Addr
		}
		return addrs, nil
	case ColIsMiss:
		if f.hit[i] {
			return 0, nil
		}
		return 1, nil
	default:
		return nil, fmt.Errorf("db: unknown column %q", col)
	}
}

// Numeric is a numeric column resolved once for a scan, so per-row
// reads skip the column-name switch. The zero value is the non-numeric
// column: every row reports ok=false.
type Numeric struct {
	kind numericKind
	ints []int64 // reuse and recency columns
	hit  []bool  // is_miss
	set  []int32 // cache_set_id
}

type numericKind uint8

const (
	numNone    numericKind = iota
	numReuse               // NoReuse rows are absent
	numRecency             // first touches (negative) are absent
	numIsMiss
	numSet
)

// NumericColumn resolves col for aggregation: the reuse distances, the
// recency, is_miss and the set id qualify. Any other column resolves to
// the zero Numeric, whose rows all report ok=false.
func (f *Frame) NumericColumn(col string) Numeric {
	switch col {
	case ColAccessReuse, ColAccessReuseNum:
		return Numeric{kind: numReuse, ints: f.accessReuse}
	case ColEvictedReuse, ColEvictedReuseNum:
		return Numeric{kind: numReuse, ints: f.evictedReuse}
	case ColRecency, ColRecencyNum:
		return Numeric{kind: numRecency, ints: f.recency}
	case ColIsMiss:
		return Numeric{kind: numIsMiss, hit: f.hit}
	case ColSet:
		return Numeric{kind: numSet, set: f.set}
	default:
		return Numeric{}
	}
}

// At returns row i's value as a float64; sentinel rows (NoReuse reuse
// distances, first-touch recencies) report ok=false so aggregations can
// skip them.
func (n Numeric) At(i int) (v float64, ok bool) {
	switch n.kind {
	case numReuse:
		if d := n.ints[i]; d != trace.NoReuse {
			return float64(d), true
		}
	case numRecency:
		if d := n.ints[i]; d >= 0 {
			return float64(d), true
		}
	case numIsMiss:
		if n.hit[i] {
			return 0, true
		}
		return 1, true
	case numSet:
		return float64(n.set[i]), true
	}
	return 0, false
}

// NumericValue returns the named column at row i as a float64, for
// aggregation. Only numeric columns qualify; NoReuse sentinel values
// report ok=false so aggregations can skip them.
func (f *Frame) NumericValue(col string, i int) (v float64, ok bool) {
	return f.NumericColumn(col).At(i)
}
