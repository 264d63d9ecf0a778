package queryir

import (
	"context"
	"sync"
	"testing"

	"cachemind/internal/db"
	"cachemind/internal/testfix"
)

// defaultStoreAccesses is the per-trace length of the store cachemindd
// and the perfbench workloads serve by default.
const defaultStoreAccesses = 60000

var (
	defaultOnce  sync.Once
	defaultStore *db.Store
)

// benchStore builds the default-size store (3 workloads x 4 policies,
// 60,000 accesses each, seed 42, the 256x8 serving LLC) once per test
// binary.
func benchStore() *db.Store {
	defaultOnce.Do(func() {
		defaultStore = db.MustBuild(db.BuildConfig{
			AccessesPerTrace: defaultStoreAccesses,
			Seed:             testfix.StoreSeed,
			LLC:              testfix.LLC(),
		})
	})
	return defaultStore
}

// lbmScanPC is lbm's streaming source-cell load, the hottest PC of the
// default store (about a third of lbm's rows).
const lbmScanPC = 0x401d9b

// BenchmarkExecute times the three query shapes that set the cold
// retrieval tail on the default store: a hot-PC miss rate, an
// unfiltered whole-frame miss rate, and a hot-PC mean evicted reuse
// distance.
func BenchmarkExecute(b *testing.B) {
	store := benchStore()
	pc := uint64(lbmScanPC)
	cases := []struct {
		name string
		q    Query
	}{
		{"hot-pc-miss-rate", Query{Workload: "lbm", Policy: "lru", PC: &pc, Agg: AggMissRate}},
		{"frame-miss-rate", Query{Workload: "lbm", Policy: "lru", Agg: AggMissRate}},
		{"hot-pc-mean-evicted-reuse", Query{Workload: "lbm", Policy: "lru", PC: &pc, Agg: AggMean, Field: db.ColEvictedReuse}},
	}
	ctx := context.Background()
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			if _, err := Execute(ctx, store, c.q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Execute(ctx, store, c.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
