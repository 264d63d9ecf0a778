// Package replay drives an LLC-only simulation over a workload's access
// stream and captures the eviction-annotated record stream the external
// database stores — the Go equivalent of the paper's PARROT-
// infrastructure ChampSim replay that emits per-access records with
// reuse, recency, eviction and policy-score annotations.
package replay

import (
	"cachemind/internal/sim"
	"cachemind/internal/stats"
	"cachemind/internal/trace"
)

// Options controls record capture.
type Options struct {
	// SnapshotEvery samples the heavyweight per-record fields (resident
	// lines, history, eviction scores) on every Nth record; 0 defaults
	// to 64. Sampling keeps frames tractable while preserving the
	// paper's schema.
	SnapshotEvery int
	// HistoryLen is the recent-access history depth (default 8).
	HistoryLen int
	// Bypass, when non-nil, is installed as the cache's external
	// insertion-bypass filter (the §6.3 bypass use case).
	Bypass func(pc, lineAddr uint64) bool
	// Annotations, when non-nil, are the stream's precomputed
	// Annotate(accs) result, shared read-only by replays of one stream
	// under several policies; nil computes them per run.
	Annotations *Annotations
}

// Annotations are the per-stream ground truth a replay attaches to its
// records. They depend on the access stream alone, not on the policy.
type Annotations struct {
	// NextUse is trace.NextUseOracle of the stream.
	NextUse []int
	// Reuse and Recency are trace.AnnotateReuse of the stream.
	Reuse, Recency []int64
}

// Annotate computes a stream's Annotations.
func Annotate(accs []trace.Access) Annotations {
	reuse, recency := trace.AnnotateReuse(accs)
	return Annotations{NextUse: trace.NextUseOracle(accs), Reuse: reuse, Recency: recency}
}

func (o Options) withDefaults() Options {
	if o.SnapshotEvery <= 0 {
		o.SnapshotEvery = 64
	}
	if o.HistoryLen <= 0 {
		o.HistoryLen = 8
	}
	return o
}

// Summary aggregates whole-trace statistics, the source of the
// database's metadata string.
type Summary struct {
	Accesses       int
	Hits           int
	Misses         int
	Evictions      int
	Bypasses       int
	ColdMisses     int
	CapacityMisses int
	ConflictMisses int
	// WrongEvictions counts evictions whose victim was needed again
	// sooner than the line inserted in its place.
	WrongEvictions int
	// RecencyMissCorr is the Pearson correlation between access recency
	// and miss outcome over non-first-touch accesses.
	RecencyMissCorr float64
}

// HitRate returns hits/accesses.
func (s Summary) HitRate() float64 { return stats.Pct(s.Hits, s.Accesses) / 100 }

// MissRate returns misses/accesses.
func (s Summary) MissRate() float64 { return stats.Pct(s.Misses, s.Accesses) / 100 }

// Result is a completed replay.
type Result struct {
	Records []trace.Record
	Summary Summary
}

// Run replays accs through an LLC with the given geometry and policy,
// producing one record per access. AccessInfo.Time is the 0-based stream
// index, which oracle-driven policies (Belady) rely on.
func Run(accs []trace.Access, cfg sim.Config, pol sim.ReplacementPolicy, opt Options) Result {
	opt = opt.withDefaults()
	cache := sim.NewCache(cfg, pol)
	cache.Bypass = opt.Bypass
	ann := opt.Annotations
	if ann == nil {
		a := Annotate(accs)
		ann = &a
	}
	oracle, reuse, recency := ann.NextUse, ann.Reuse, ann.Recency
	capacityLines := int64(cfg.Lines())

	records := make([]trace.Record, 0, len(accs))
	history := make([]trace.LineRef, 0, opt.HistoryLen)
	var sum Summary
	var corrX, corrY []float64

	for i, a := range accs {
		info := sim.AccessInfo{
			Time:     uint64(i),
			PC:       a.PC,
			LineAddr: a.LineAddr(),
			Write:    a.Write,
			Prefetch: a.Prefetch,
		}
		set := cache.SetIndex(info.LineAddr)

		rec := trace.Record{
			Seq:               uint64(i),
			PC:                a.PC,
			Addr:              info.LineAddr,
			Set:               set,
			AccessedReuseDist: reuse[i],
			Recency:           recency[i],
		}
		if i%opt.SnapshotEvery == 0 {
			rec.ResidentLines = snapshotSet(cache, set)
			rec.RecentHistory = append([]trace.LineRef(nil), history...)
			rec.EvictionScores = cache.Scores(set)
		}

		ev := cache.Access(info)
		rec.Hit = ev.Hit
		sum.Accesses++
		if ev.Hit {
			sum.Hits++
		} else {
			sum.Misses++
			rec.MissType = classifyMiss(recency[i], capacityLines)
			switch rec.MissType {
			case trace.ColdMiss:
				sum.ColdMisses++
			case trace.CapacityMiss:
				sum.CapacityMisses++
			case trace.ConflictMiss:
				sum.ConflictMisses++
			}
		}
		if ev.Bypassed {
			sum.Bypasses++
		}
		if ev.Evicted.Valid {
			sum.Evictions++
			rec.EvictedAddr = ev.Evicted.Addr
			rec.EvictedReuseDist = evictedReuse(oracle, ev.Evicted.LastTouch, i)
			insertedNext := horizonOr(oracle, i, len(accs))
			evictedNext := horizonOr(oracle, int(ev.Evicted.LastTouch), len(accs))
			if evictedNext < insertedNext {
				rec.WrongEviction = true
				sum.WrongEvictions++
			}
		} else {
			rec.EvictedReuseDist = trace.NoReuse
		}

		if recency[i] >= 0 {
			corrX = append(corrX, float64(recency[i]))
			if ev.Hit {
				corrY = append(corrY, 0)
			} else {
				corrY = append(corrY, 1)
			}
		}

		history = append(history, trace.LineRef{PC: a.PC, Addr: info.LineAddr})
		if len(history) > opt.HistoryLen {
			history = history[1:]
		}
		records = append(records, rec)
	}

	sum.RecencyMissCorr = stats.Correlation(corrX, corrY)
	return Result{Records: records, Summary: sum}
}

// classifyMiss applies the recency-based taxonomy: first touches are
// cold; misses whose reuse interval exceeds the cache's line capacity
// are capacity (a fully-associative cache of the same size would also
// miss, approximating stack distance by access recency); the rest are
// conflict.
func classifyMiss(recency, capacityLines int64) trace.MissType {
	switch {
	case recency < 0:
		return trace.ColdMiss
	case recency > capacityLines:
		return trace.CapacityMiss
	default:
		return trace.ConflictMiss
	}
}

// evictedReuse computes how many accesses after eviction time `now` the
// evicted line is needed again. While a line is resident every access
// to it hits and refreshes LastTouch, so the line's next use after its
// last touch is its next use after now.
func evictedReuse(oracle []int, lastTouch uint64, now int) int64 {
	if int(lastTouch) >= len(oracle) {
		return trace.NoReuse
	}
	next := oracle[lastTouch]
	if next >= len(oracle) {
		return trace.NoReuse
	}
	return int64(next - now)
}

func horizonOr(oracle []int, idx, horizon int) int {
	if idx < 0 || idx >= len(oracle) {
		return horizon
	}
	return oracle[idx]
}

func snapshotSet(c *sim.Cache, set int) []trace.LineRef {
	lines := c.Set(set)
	out := make([]trace.LineRef, 0, len(lines))
	for _, l := range lines {
		if l.Valid {
			out = append(out, trace.LineRef{PC: l.PC, Addr: l.Addr})
		}
	}
	return out
}
