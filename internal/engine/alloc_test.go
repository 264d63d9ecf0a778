package engine_test

import (
	"context"
	"testing"

	"cachemind/internal/engine"
)

// TestCachedAskAllocs pins the allocation budget of the exact-hit fast
// path under every eviction policy: a cached ask with NoMemory (no
// session recording) must allocate nothing — the key is built in pooled
// scratch, hashed once, and probed zero-copy, the policy observes the
// hit through OnHitBytes, and the cached answer is served without
// copying. This is
// the unit-level half of the perf gate; cmd/loadgen enforces the same
// budget end-to-end in CI via -max-allocs.
func TestCachedAskAllocs(t *testing.T) {
	for _, policy := range engine.CachePolicies() {
		t.Run(policy, func(t *testing.T) {
			e := newEngine(t, engine.Config{Shards: 4, CachePolicy: policy})
			ctx := context.Background()
			req := engine.Request{
				SessionID: "alloc",
				Question:  questions[0],
				Options:   engine.Options{NoMemory: true},
			}
			// Warm the cache (the first ask is a cold miss) and the
			// scratch pool.
			if _, err := e.Ask(ctx, req); err != nil {
				t.Fatal(err)
			}

			var resp engine.Response
			var err error
			allocs := testing.AllocsPerRun(200, func() {
				resp, err = e.Ask(ctx, req)
			})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Tier != engine.TierExact {
				t.Fatalf("tier = %v, want exact hit", resp.Tier)
			}
			if allocs != 0 {
				t.Fatalf("cached NoMemory ask under %s allocated %.1f times per op, want 0", policy, allocs)
			}
		})
	}
}

// TestCachedAskAllocsSemanticEnabled: enabling the semantic tier must
// not tax the exact-hit fast path — the embedding is computed only on
// an exact miss, so a byte-identical repeat still allocates nothing.
func TestCachedAskAllocsSemanticEnabled(t *testing.T) {
	e := newEngine(t, engine.Config{Shards: 4, SemanticThreshold: 0.85})
	ctx := context.Background()
	req := engine.Request{
		SessionID: "alloc-sem",
		Question:  questions[1],
		Options:   engine.Options{NoMemory: true},
	}
	if _, err := e.Ask(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Ask(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cached ask with semantic tier enabled allocated %.1f times per op, want 0", allocs)
	}
}

// TestCachedAskAllocsWithMemory pins the full default path (session
// recording on) at zero allocations in steady state: recording a turn
// is one append into the session's turn log, whose backing array stops
// growing once compaction has run. MaxSessionTurns: 1 compacts the log
// on every recorded ask after the first, so the warm-up passes the
// first compaction and every measured ask runs one — an allocating
// compaction would cost a whole allocation per op, which
// AllocsPerRun's rounded-down average cannot hide.
func TestCachedAskAllocsWithMemory(t *testing.T) {
	const maxTurns, warm = 1, 3
	e := newEngine(t, engine.Config{Shards: 4, MaxSessionTurns: maxTurns})
	ctx := context.Background()
	req := engine.Request{SessionID: "alloc-mem", Question: questions[2]}
	for i := 0; i < warm; i++ {
		if _, err := e.Ask(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if turns, _ := e.SessionTurns(req.SessionID); len(turns) >= warm {
		t.Fatalf("warm-up left %d turns: the session was never compacted", len(turns))
	}
	var resp engine.Response
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		resp, err = e.Ask(ctx, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Tier != engine.TierExact {
		t.Fatalf("tier = %v, want exact hit", resp.Tier)
	}
	if allocs != 0 {
		t.Fatalf("cached recorded ask allocated %.2f times per op, want 0", allocs)
	}
}
