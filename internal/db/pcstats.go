package db

import (
	"cachemind/internal/stats"
	"cachemind/internal/trace"
)

// PCStats is the Cache Statistical Expert's per-PC summary (paper
// §3.2.3): the digest Sieve attaches to retrieved slices and the raw
// material for policy-comparison and arithmetic questions.
type PCStats struct {
	PC               uint64
	Accesses         int
	Hits             int
	Misses           int
	Evictions        int // accesses at this PC that evicted a line
	MissRatePct      float64
	HitRatePct       float64
	MeanAccessReuse  float64 // mean forward reuse distance of reused accesses
	StdAccessReuse   float64
	MeanEvictedReuse float64 // mean reuse distance of lines this PC evicted
	BadEvictionPct   float64 // evictions where the victim was needed sooner
	DeadAccessPct    float64 // accesses whose line is never used again
	FunctionName     string
}

// StatsForPC computes the statistical-expert digest for one PC. The
// boolean result is false when the PC does not appear in the frame.
func (f *Frame) StatsForPC(pc uint64) (PCStats, bool) {
	rows := f.byPC.lookup(pc)
	if len(rows) == 0 {
		return PCStats{}, false
	}
	st := PCStats{PC: pc, FunctionName: f.syms.NameAt(pc)}
	var accessReuse, evictedReuse []float64
	dead, wrong := 0, 0
	for _, i := range rows {
		st.Accesses++
		if f.hit[i] {
			st.Hits++
		} else {
			st.Misses++
		}
		if d := f.accessReuse[i]; d == trace.NoReuse {
			dead++
		} else {
			accessReuse = append(accessReuse, float64(d))
		}
		if f.evictedAddr[i] != 0 {
			st.Evictions++
			if d := f.evictedReuse[i]; d != trace.NoReuse {
				evictedReuse = append(evictedReuse, float64(d))
			}
			if f.wrongEviction[i] {
				wrong++
			}
		}
	}
	st.MissRatePct = stats.Pct(st.Misses, st.Accesses)
	st.HitRatePct = stats.Pct(st.Hits, st.Accesses)
	st.MeanAccessReuse = stats.Mean(accessReuse)
	st.StdAccessReuse = stats.StdDev(accessReuse)
	st.MeanEvictedReuse = stats.Mean(evictedReuse)
	st.BadEvictionPct = stats.Pct(wrong, st.Evictions)
	st.DeadAccessPct = stats.Pct(dead, st.Accesses)
	return st, true
}

// AllPCStats returns the digest for every PC, ascending by PC.
func (f *Frame) AllPCStats() []PCStats {
	out := make([]PCStats, 0, len(f.byPC.keys))
	for _, pc := range f.byPC.keys {
		st, _ := f.StatsForPC(pc)
		out = append(out, st)
	}
	return out
}

// SetStats summarizes one cache set's activity — the §6.3 set-hotness
// analysis unit.
type SetStats struct {
	Set        int
	Accesses   int
	Hits       int
	Misses     int
	HitRatePct float64
}

// StatsForSet computes per-set hit statistics; ok is false for sets the
// trace never touched.
func (f *Frame) StatsForSet(set int) (SetStats, bool) {
	rows := f.RowsForSet(set)
	if len(rows) == 0 {
		return SetStats{}, false
	}
	st := SetStats{Set: set}
	for _, i := range rows {
		st.Accesses++
		if f.hit[i] {
			st.Hits++
		} else {
			st.Misses++
		}
	}
	st.HitRatePct = stats.Pct(st.Hits, st.Accesses)
	return st, true
}

// AllSetStats returns per-set statistics for every touched set,
// ascending by set index.
func (f *Frame) AllSetStats() []SetStats {
	out := make([]SetStats, 0, len(f.bySet.keys))
	for _, s := range f.bySet.keys {
		st, _ := f.StatsForSet(int(s))
		out = append(out, st)
	}
	return out
}
