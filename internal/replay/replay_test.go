package replay

import (
	"reflect"
	"testing"
	"testing/quick"

	"cachemind/internal/policy"
	"cachemind/internal/sim"
	"cachemind/internal/trace"
	"cachemind/internal/workload"
)

func llcCfg() sim.Config {
	return sim.Config{Name: "LLC", Sets: 128, Ways: 8, Latency: 26}
}

func runLRU(t *testing.T, accs []trace.Access, opt Options) Result {
	t.Helper()
	p, err := policy.New("lru", llcCfg(), policy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Run(accs, llcCfg(), p, opt)
}

func TestRecordPerAccess(t *testing.T) {
	accs := workload.Astar.Generate(5000, 1)
	res := runLRU(t, accs, Options{})
	if len(res.Records) != len(accs) {
		t.Fatalf("records = %d, want %d", len(res.Records), len(accs))
	}
	if res.Summary.Accesses != len(accs) {
		t.Errorf("summary accesses = %d", res.Summary.Accesses)
	}
	if res.Summary.Hits+res.Summary.Misses != res.Summary.Accesses {
		t.Error("hits+misses != accesses")
	}
	if res.Summary.ColdMisses+res.Summary.CapacityMisses+res.Summary.ConflictMisses != res.Summary.Misses {
		t.Error("miss taxonomy does not partition misses")
	}
}

func TestRecordFieldsConsistent(t *testing.T) {
	accs := workload.MCF.Generate(8000, 2)
	res := runLRU(t, accs, Options{})
	for i, r := range res.Records {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.PC != accs[i].PC || r.Addr != accs[i].LineAddr() {
			t.Fatalf("record %d PC/addr mismatch", i)
		}
		if r.Hit && r.MissType != trace.NotMiss {
			t.Fatalf("record %d: hit with miss type %v", i, r.MissType)
		}
		if !r.Hit && r.MissType == trace.NotMiss {
			t.Fatalf("record %d: miss without taxonomy", i)
		}
		if r.EvictedAddr != 0 && r.Hit {
			t.Fatalf("record %d: hit with eviction", i)
		}
	}
}

func TestSnapshotSampling(t *testing.T) {
	accs := workload.LBM.Generate(3000, 3)
	res := runLRU(t, accs, Options{SnapshotEvery: 100, HistoryLen: 4})
	withSnap, nonEmpty := 0, 0
	for i, r := range res.Records {
		if i%100 == 0 {
			withSnap++
			if len(r.ResidentLines) > 0 {
				nonEmpty++
			}
			if len(r.RecentHistory) > 4 {
				t.Errorf("record %d: history longer than configured", i)
			}
		} else if r.ResidentLines != nil || r.RecentHistory != nil {
			t.Errorf("record %d: unexpected snapshot", i)
		}
	}
	if withSnap != 30 {
		t.Errorf("snapshots = %d, want 30", withSnap)
	}
	if nonEmpty == 0 {
		t.Error("no sampled record captured resident lines")
	}
}

func TestEvictionScoresCaptured(t *testing.T) {
	accs := workload.Astar.Generate(4000, 4)
	res := runLRU(t, accs, Options{SnapshotEvery: 64})
	found := false
	for i, r := range res.Records {
		if i > 1000 && i%64 == 0 && len(r.EvictionScores) > 0 {
			found = true
			if len(r.EvictionScores) != llcCfg().Ways {
				t.Errorf("record %d: %d scores, want %d", i, len(r.EvictionScores), llcCfg().Ways)
			}
			break
		}
	}
	if !found {
		t.Error("no eviction scores captured")
	}
}

// Under Belady, no eviction is ever "wrong" (the victim's next use is
// always the farthest), so the wrong-eviction counter must be 0; LRU on
// a thrashing workload must have many.
func TestWrongEvictionsBeladyVsLRU(t *testing.T) {
	accs := workload.LBM.Generate(30000, 5)
	oracle := trace.NextUseOracle(accs)
	bp, err := policy.New("belady", llcCfg(), policy.Options{Oracle: oracle})
	if err != nil {
		t.Fatal(err)
	}
	bres := Run(accs, llcCfg(), bp, Options{})
	if bres.Summary.WrongEvictions != 0 {
		t.Errorf("Belady wrong evictions = %d, want 0", bres.Summary.WrongEvictions)
	}
	lres := runLRU(t, accs, Options{})
	if lres.Summary.WrongEvictions == 0 {
		t.Error("LRU on thrashing lbm should have wrong evictions")
	}
	if lres.Summary.Hits > bres.Summary.Hits {
		t.Error("LRU cannot beat Belady")
	}
}

func TestEvictedReuseDistancePositive(t *testing.T) {
	accs := workload.Astar.Generate(10000, 6)
	res := runLRU(t, accs, Options{})
	for i, r := range res.Records {
		if r.EvictedAddr == 0 {
			continue
		}
		if r.EvictedReuseDist != trace.NoReuse && r.EvictedReuseDist <= 0 {
			t.Fatalf("record %d: non-positive evicted reuse distance %d", i, r.EvictedReuseDist)
		}
	}
}

func TestSummaryRates(t *testing.T) {
	accs := workload.MCF.Generate(10000, 7)
	res := runLRU(t, accs, Options{})
	if hr, mr := res.Summary.HitRate(), res.Summary.MissRate(); hr+mr < 0.999 || hr+mr > 1.001 {
		t.Errorf("hit rate %v + miss rate %v != 1", hr, mr)
	}
	// mcf is the paper's highest-miss-rate workload: expect a majority
	// of misses at this small geometry.
	if res.Summary.MissRate() < 0.5 {
		t.Errorf("mcf miss rate = %.2f, expected streaming-dominated misses", res.Summary.MissRate())
	}
}

func TestClassifyMiss(t *testing.T) {
	if classifyMiss(-1, 100) != trace.ColdMiss {
		t.Error("first touch should be cold")
	}
	if classifyMiss(101, 100) != trace.CapacityMiss {
		t.Error("beyond-capacity recency should be capacity")
	}
	if classifyMiss(50, 100) != trace.ConflictMiss {
		t.Error("within-capacity recency should be conflict")
	}
}

// Property: evicted reuse distances agree with a brute-force scan of the
// future access stream.
func TestEvictedReuseMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		accs := workload.Astar.Generate(1500, seed)
		res := runLRU(t, accs, Options{})
		for i, r := range res.Records {
			if r.EvictedAddr == 0 {
				continue
			}
			want := int64(trace.NoReuse)
			for j := i + 1; j < len(accs); j++ {
				if accs[j].LineAddr() == r.EvictedAddr {
					want = int64(j - i)
					break
				}
			}
			if r.EvictedReuseDist != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

// Property: replay is deterministic.
func TestReplayDeterministicProperty(t *testing.T) {
	accs := workload.LBM.Generate(4000, 12)
	a := runLRU(t, accs, Options{})
	b := runLRU(t, accs, Options{})
	if a.Summary != b.Summary {
		t.Errorf("summaries differ: %+v vs %+v", a.Summary, b.Summary)
	}
}

// TestSharedAnnotations checks that a replay given the stream's
// precomputed annotations produces exactly the records of one that
// computes its own.
func TestSharedAnnotations(t *testing.T) {
	accs := workload.LBM.Generate(6000, 3)
	ann := Annotate(accs)
	own := runLRU(t, accs, Options{})
	shared := runLRU(t, accs, Options{Annotations: &ann})
	if !reflect.DeepEqual(own, shared) {
		t.Fatal("replay with shared annotations differs from one computing its own")
	}
}
