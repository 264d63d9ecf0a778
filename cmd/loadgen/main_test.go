package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cachemind/internal/db"
	"cachemind/internal/db/dbtest"
	"cachemind/internal/engine"
)

func testStore(t testing.TB) *db.Store {
	return dbtest.Store(t, dbtest.Config{})
}

func smokeConfig(t *testing.T) config {
	return config{
		concurrency: 4,
		requests:    40,
		batch:       1,
		repeat:      0.5,
		seed:        1,
		sessions:    4,
		store:       testStore(t),
	}
}

// TestRunInProcessSmoke: a tiny in-process run completes with zero
// errors, positive throughput, sane percentiles, and balanced counters.
func TestRunInProcessSmoke(t *testing.T) {
	report, err := run(smokeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if report.Mode != "inprocess" || report.Schema != "cachemind-loadgen/v7" {
		t.Fatalf("mode/schema = %q/%q", report.Mode, report.Schema)
	}
	if report.Warmup != 0 || report.AllocsPerCachedAsk != nil || report.Thresholds != nil {
		t.Fatalf("default run grew v5 extras: warmup %d, allocs %v, thresholds %v",
			report.Warmup, report.AllocsPerCachedAsk, report.Thresholds)
	}
	if report.SessionReplay || report.SessionTurns != 0 || report.Prefetch != nil {
		t.Fatalf("default run grew v6 extras: replay %v, turns %d, prefetch %v",
			report.SessionReplay, report.SessionTurns, report.Prefetch)
	}
	if report.CachePolicy != "lru" || report.Cache.Source != "engine" {
		t.Fatalf("policy/source = %q/%q, want lru/engine", report.CachePolicy, report.Cache.Source)
	}
	if report.AnswerDigest == "" {
		t.Fatal("answer digest missing")
	}
	if report.Questions != 40 || report.Requests != 40 {
		t.Fatalf("questions/requests = %d/%d, want 40/40 at batch 1", report.Questions, report.Requests)
	}
	if report.Errors != 0 || report.Canceled != 0 || report.ErrorSample != "" {
		t.Fatalf("errors/canceled = %d/%d (%q)", report.Errors, report.Canceled, report.ErrorSample)
	}
	if report.ThroughputQPS <= 0 || report.DurationSeconds <= 0 {
		t.Fatalf("throughput %.1f over %.3fs", report.ThroughputQPS, report.DurationSeconds)
	}
	l := report.Latency
	if l.P50 <= 0 || l.P95 < l.P50 || l.P99 < l.P95 || l.Max < l.P99-0.001 {
		t.Fatalf("percentiles not ordered: %+v", l)
	}
	if report.Cache.Hits+report.Cache.Misses != 40 {
		t.Fatalf("cache hits+misses = %d, want 40", report.Cache.Hits+report.Cache.Misses)
	}
	// repeat=0.5 over 40 draws of a 100-question suite must hit.
	if report.Cache.Hits == 0 || report.Cache.HitRate <= 0 {
		t.Fatalf("no cache hits despite repeat ratio: %+v", report.Cache)
	}
	if report.Shards < 1 {
		t.Fatalf("in-process shards = %d", report.Shards)
	}
}

// TestRunBatchInProcess: the batch path asks every question exactly
// once per request group, preserving totals.
func TestRunBatchInProcess(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.batch = 8
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Questions != 40 {
		t.Fatalf("questions = %d, want 40", report.Questions)
	}
	if report.Requests != 5 {
		t.Fatalf("requests = %d, want 5 batches of 8", report.Requests)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d (%s)", report.Errors, report.ErrorSample)
	}
}

// TestRunDeterministicMix: two runs with the same seed ask the same
// questions and end with identical hit/miss totals (latency varies,
// the workload must not).
func TestRunDeterministicMix(t *testing.T) {
	a, err := run(smokeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(smokeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cache.Hits != b.Cache.Hits || a.Cache.Misses != b.Cache.Misses {
		t.Fatalf("same-seed runs diverge: %+v vs %+v", a.Cache, b.Cache)
	}
}

// TestRunReportSchemaStable: the JSON document contains every key the
// CI perf gate and trend tooling rely on.
func TestRunReportSchemaStable(t *testing.T) {
	report, err := run(smokeConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"schema", "mode", "concurrency", "batch", "shards", "seed",
		"repeat_ratio", "sessions", "cache_policy", "semantic_threshold",
		"paraphrase_ratio", "session_replay", "warmup", "requests",
		"questions", "errors", "canceled", "duration_seconds",
		"throughput_qps", "latency_ms", "cache", "answer_digest",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report missing key %q:\n%s", key, data)
		}
	}
	lat, ok := doc["latency_ms"].(map[string]any)
	if !ok {
		t.Fatalf("latency_ms not an object: %s", data)
	}
	for _, key := range []string{"p50", "p95", "p99", "mean", "max", "count"} {
		if _, ok := lat[key]; !ok {
			t.Errorf("latency_ms missing %q", key)
		}
	}
	cache, ok := doc["cache"].(map[string]any)
	if !ok {
		t.Fatalf("cache not an object: %s", data)
	}
	for _, key := range []string{
		"source", "hits", "exact_hits", "semantic_hits", "misses",
		"hit_rate", "exact_hit_rate", "semantic_hit_rate",
		"covered_miss_rate", "wasted_prefetch_rate",
	} {
		if _, ok := cache[key]; !ok {
			t.Errorf("cache missing %q", key)
		}
	}
}

// TestRunWarmupExcludedFromTallies is the warmup accounting regression
// test: with a warmup pass covering the entire plan, the measured run
// sees a fully warmed cache — all exact hits, zero misses — and the
// warmup asks themselves appear in no measured counter, only in the
// warmup echo.
func TestRunWarmupExcludedFromTallies(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.warmup = 40 // the plan is 40 questions long, so warmup replays it all
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Warmup != 40 {
		t.Fatalf("warmup echo = %d, want 40", report.Warmup)
	}
	if report.Questions != 40 || report.Requests != 40 {
		t.Fatalf("measured questions/requests = %d/%d, want 40/40 (warmup must not count)",
			report.Questions, report.Requests)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d (%s)", report.Errors, report.ErrorSample)
	}
	c := report.Cache
	if c.Hits+c.Misses != 40 {
		t.Fatalf("measured lookups = %d, want 40 (warmup lookups leaked in)", c.Hits+c.Misses)
	}
	if c.Misses != 0 || c.ExactHits != 40 {
		t.Fatalf("warmed run should be all exact hits: %+v", c)
	}
	if c.HitRate != 1 {
		t.Fatalf("warmed hit rate = %v, want 1", c.HitRate)
	}
}

// TestRunWarmedMeanBetweenPercentiles is the latency-accounting
// regression test for the bug -warmup exists to fix: without it, the
// one-time cold-start asks (store-backed retrieval + generation) fold
// into every percentile and drag the mean far above the steady-state
// p95. With the whole plan warmed on a cached-heavy mix, the measured
// histogram must hold exactly the measured requests — one observation
// each, no warmup ask among them — and every one of them must be a
// cache hit. The mean is bounded below by the warmed median (p50*0.9;
// the 0.9 covers the histogram's ~9% bucket resolution — mean is exact
// while p50 reads a bucket bound). It is not bounded above by p95: one
// scheduler stall in an all-hit run of ~10µs asks can lift the mean
// past p95 with nothing leaked, so the observation count guards that
// side instead.
func TestRunWarmedMeanBetweenPercentiles(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.concurrency = 1
	cfg.requests = 1000
	cfg.warmup = 1000
	cfg.repeat = 0.9 // cached-heavy mix
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d (%s)", report.Errors, report.ErrorSample)
	}
	l := report.Latency
	if l.Count != uint64(cfg.requests) || l.Count != uint64(report.Requests) {
		t.Fatalf("measured histogram holds %d observations, want %d (requests %d) — warmup asks are leaking into the measured latency",
			l.Count, cfg.requests, report.Requests)
	}
	if report.Cache.Misses != 0 {
		t.Fatalf("warmed run missed %d times — the warmup should leave an all-hit run", report.Cache.Misses)
	}
	if l.Mean < l.P50*0.9 {
		t.Fatalf("warmed mean %.4fms below p50*0.9=%.4fms", l.Mean, l.P50*0.9)
	}
}

// TestRunAllocProbe: an in-process run with the probe enabled reports
// allocs_per_cached_ask, and the number agrees with the engine's
// zero-allocation contract for the default exact-hit path (session
// memory on) — exactly 0, under the same rounded-down averaging
// contract as testing.AllocsPerRun (engine.TestCachedAskAllocsWithMemory
// pins the same zero at the unit level).
func TestRunAllocProbe(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.measureAllocs = true
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.AllocsPerCachedAsk == nil {
		t.Fatal("alloc probe enabled but allocs_per_cached_ask missing")
	}
	if a := *report.AllocsPerCachedAsk; a != 0 {
		t.Fatalf("cached ask costs %.2f allocs/op, want the zero-alloc fast path", a)
	}
}

// TestRunThresholdsEchoed: configured gate levels appear in the report
// (the CI artifact records what the gate enforced), absent otherwise.
func TestRunThresholdsEchoed(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.minQPS = 1
	cfg.maxP99MS = 60000
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	th := report.Thresholds
	if th == nil || th.MinQPS != 1 || th.MaxP99MS != 60000 || th.MaxAllocs != 0 {
		t.Fatalf("thresholds echo = %+v", th)
	}
}

// TestRunRejectsBadPerfGateConfigs: negative warmup and -max-allocs
// against a remote daemon are configuration errors.
func TestRunRejectsBadPerfGateConfigs(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.warmup = -1
	if _, err := run(cfg); err == nil {
		t.Fatal("negative -warmup accepted")
	}
	cfg = smokeConfig(t)
	cfg.url = "http://127.0.0.1:1"
	cfg.maxAllocs = 2
	if _, err := run(cfg); err == nil {
		t.Fatal("-max-allocs accepted in -url mode (nothing to measure there)")
	}
}

// TestRunHitRateMatchesEngineStats is the hit-rate accounting
// regression test: with batching in the mix, the report's cache block
// must mirror Engine.Stats() exactly — hit_rate = hits/(hits+misses)
// over actual cache lookups — instead of the old hits/answered, whose
// denominator counts questions that never did a dedicated lookup
// (coalesced batch siblings, bypassed asks).
func TestRunHitRateMatchesEngineStats(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.batch = 8
	cfg.repeat = 0.8
	var eng *engine.Engine
	cfg.engineHook = func(e *engine.Engine) { eng = e }
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil {
		t.Fatal("engine hook never fired")
	}
	st := eng.Stats()
	if report.Cache.Hits != int64(st.CacheHits) || report.Cache.Misses != int64(st.CacheMisses) {
		t.Fatalf("report cache %d/%d diverges from Engine.Stats %d/%d",
			report.Cache.Hits, report.Cache.Misses, st.CacheHits, st.CacheMisses)
	}
	// Every answered question did exactly one accounted lookup.
	answered := int64(report.Questions - report.Errors - report.Canceled)
	if report.Cache.Hits+report.Cache.Misses != answered {
		t.Fatalf("hits(%d)+misses(%d) != answered(%d)", report.Cache.Hits, report.Cache.Misses, answered)
	}
	want := float64(report.Cache.Hits) / float64(report.Cache.Hits+report.Cache.Misses)
	if report.Cache.HitRate != want {
		t.Fatalf("hit_rate = %v, want hits/(hits+misses) = %v", report.Cache.HitRate, want)
	}
}

// TestRunPolicySweep: the sweep covers every registered policy with
// the identical mix, every row answers cleanly, and all answer digests
// agree — the serving-side analogue of the paper's policy-comparison
// figures.
func TestRunPolicySweep(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.requests = 24
	cfg.policySweep = true
	cfg.cacheSize = 4 // force evictions so every policy's Victim path runs
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	policies := engine.CachePolicies()
	if len(report.PolicySweep) != len(policies) {
		t.Fatalf("sweep rows = %d, want %d (%v)", len(report.PolicySweep), len(policies), policies)
	}
	if report.CachePolicy != "lru" {
		t.Fatalf("sweep base report policy = %q, want the lru pass", report.CachePolicy)
	}
	digest := ""
	for i, row := range report.PolicySweep {
		if row.Policy != policies[i] {
			t.Fatalf("row %d policy = %q, want %q (sorted registry order)", i, row.Policy, policies[i])
		}
		if row.Errors != 0 || row.Canceled != 0 || row.Questions != 24 {
			t.Fatalf("policy %s row unhealthy: %+v", row.Policy, row)
		}
		if row.Cache.Hits+row.Cache.Misses != 24 {
			t.Fatalf("policy %s lookups = %d, want 24", row.Policy, row.Cache.Hits+row.Cache.Misses)
		}
		if row.AnswerDigest == "" {
			t.Fatalf("policy %s digest missing", row.Policy)
		}
		if digest == "" {
			digest = row.AnswerDigest
		} else if row.AnswerDigest != digest {
			t.Fatalf("policy %s answers diverge (digest %s vs %s)", row.Policy, row.AnswerDigest, digest)
		}
	}
}

// TestRunPolicySweepRejectsIncompatibleModes: the sweep is in-process
// count-mode only.
func TestRunPolicySweepRejectsIncompatibleModes(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.policySweep = true
	cfg.url = "http://127.0.0.1:1"
	if _, err := run(cfg); err == nil {
		t.Fatal("sweep accepted -url mode")
	}
	cfg = smokeConfig(t)
	cfg.policySweep = true
	cfg.requests = 0
	cfg.duration = time.Second
	if _, err := run(cfg); err == nil {
		t.Fatal("sweep accepted duration mode")
	}
}

// TestRunSemanticTierHits: a paraphrase-group mix against the semantic
// tier produces semantic hits (semantic_hit_rate > 0), the per-tier
// split mirrors Engine.Stats(), and the rates stay consistent with the
// v3 totals. Concurrency 1 makes the outcome deterministic: every
// reworded repeat finds its original already cached, so each one is
// either a semantic hit or (when the rewording was an identity, e.g.
// lowercasing an already-lowercase question) an exact hit.
func TestRunSemanticTierHits(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.concurrency = 1
	cfg.requests = 160
	cfg.repeat = 0.6
	cfg.paraphrase = 0.5
	cfg.semThreshold = 0.85
	var eng *engine.Engine
	cfg.engineHook = func(e *engine.Engine) { eng = e }
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d (%s)", report.Errors, report.ErrorSample)
	}
	if report.SemanticThreshold != 0.85 || report.ParaphraseRatio != 0.5 {
		t.Fatalf("echoes = threshold %v, paraphrase %v", report.SemanticThreshold, report.ParaphraseRatio)
	}
	c := report.Cache
	if c.SemanticHits == 0 || c.SemanticHitRate <= 0 {
		t.Fatalf("no semantic hits despite paraphrase mix: %+v", c)
	}
	if c.Hits != c.ExactHits+c.SemanticHits {
		t.Fatalf("hits %d != exact %d + semantic %d", c.Hits, c.ExactHits, c.SemanticHits)
	}
	if got, want := c.ExactHitRate+c.SemanticHitRate, c.HitRate; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("tier rates %v+%v don't sum to hit_rate %v", c.ExactHitRate, c.SemanticHitRate, want)
	}
	st := eng.Stats()
	if c.ExactHits != int64(st.CacheExactHits) || c.SemanticHits != int64(st.CacheSemanticHits) {
		t.Fatalf("report split %d/%d diverges from Engine.Stats %d/%d",
			c.ExactHits, c.SemanticHits, st.CacheExactHits, st.CacheSemanticHits)
	}
}

// TestRunSemanticThresholdOneMatchesExactOnly is the degenerate-tier
// acceptance check: -semantic-threshold 1.0 must reproduce the
// exact-only run bit for bit — identical hit/miss totals and answer
// digest over the identical paraphrase mix.
func TestRunSemanticThresholdOneMatchesExactOnly(t *testing.T) {
	base := smokeConfig(t)
	base.concurrency = 1
	base.requests = 120
	base.repeat = 0.6
	base.paraphrase = 0.5

	exact, err := run(base)
	if err != nil {
		t.Fatal(err)
	}
	degenerate := base
	degenerate.store = testStore(t)
	degenerate.semThreshold = 1.0
	deg, err := run(degenerate)
	if err != nil {
		t.Fatal(err)
	}
	if deg.SemanticThreshold != 0 {
		t.Fatalf("threshold 1.0 should report as 0 (exact-only), got %v", deg.SemanticThreshold)
	}
	if deg.Cache.Hits != exact.Cache.Hits || deg.Cache.Misses != exact.Cache.Misses {
		t.Fatalf("threshold 1.0 diverges from exact-only: %+v vs %+v", deg.Cache, exact.Cache)
	}
	if deg.Cache.SemanticHits != 0 {
		t.Fatalf("threshold 1.0 produced %d semantic hits", deg.Cache.SemanticHits)
	}
	if deg.AnswerDigest != exact.AnswerDigest {
		t.Fatalf("threshold 1.0 answers diverge: digest %s vs %s", deg.AnswerDigest, exact.AnswerDigest)
	}
}

// TestRunPolicySweepRejectsSemanticThreshold: a live semantic tier
// would make cross-policy digests residency-dependent, so the sweep
// refuses it; the degenerate 1.0 (exact-only) stays allowed.
func TestRunPolicySweepRejectsSemanticThreshold(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.policySweep = true
	cfg.semThreshold = 0.85
	if _, err := run(cfg); err == nil {
		t.Fatal("sweep accepted a live semantic threshold")
	}
	cfg = smokeConfig(t)
	cfg.requests = 24
	cfg.policySweep = true
	cfg.semThreshold = 1.0
	if _, err := run(cfg); err != nil {
		t.Fatalf("sweep rejected the degenerate exact-only threshold: %v", err)
	}
}

// TestRunSemanticThresholdRejectedWithURL: like -cache-policy, the
// tier is a server-side setting in -url mode.
func TestRunSemanticThresholdRejectedWithURL(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.url = "http://127.0.0.1:1"
	cfg.semThreshold = 0.85
	if _, err := run(cfg); err == nil {
		t.Fatal("-semantic-threshold silently ignored in -url mode")
	}
}

// TestRunUnknownCachePolicy: a bad -cache-policy is a configuration
// error, not a silent fallback.
func TestRunUnknownCachePolicy(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.cachePolicy = "optimal-prime"
	if _, err := run(cfg); err == nil {
		t.Fatal("unknown cache policy accepted")
	}
}

// TestRunCachePolicyRejectedWithURL: against a live daemon the server
// owns the eviction policy — a non-default -cache-policy must error
// rather than be silently ignored.
func TestRunCachePolicyRejectedWithURL(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.url = "http://127.0.0.1:1"
	cfg.cachePolicy = "hawkeye"
	if _, err := run(cfg); err == nil {
		t.Fatal("-cache-policy silently ignored in -url mode")
	}
}

// TestRunRejectsEmptyPlan: no count and no duration is a config error.
func TestRunRejectsEmptyPlan(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.requests = 0
	if _, err := run(cfg); err == nil {
		t.Fatal("run accepted a config with neither -n nor -duration")
	}
}

// stubDaemon mimics cachemindd's two ask endpoints well enough to
// exercise the HTTP driver's wire handling.
func stubDaemon(t *testing.T) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var singles, batches atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ask", func(w http.ResponseWriter, r *http.Request) {
		singles.Add(1)
		var req struct{ Session, Question string }
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, `{"answer":"stub","cached":%v}`, singles.Load() > 1)
	})
	mux.HandleFunc("POST /v1/ask/batch", func(w http.ResponseWriter, r *http.Request) {
		batches.Add(1)
		var reqs []struct{ Session, Question string }
		if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		out := make([]map[string]any, len(reqs))
		for i := range reqs {
			// Alternate tiers so the client's per-tier counting is
			// exercised over the wire (cached stays the derived flag).
			tier := "cold"
			if i%2 == 1 {
				tier = "semantic"
			}
			out[i] = map[string]any{"answer": "stub", "cached": i%2 == 1, "cache_tier": tier}
		}
		_ = json.NewEncoder(w).Encode(out)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &singles, &batches
}

// TestRunHTTPDriver: -url mode sends singles to /v1/ask and batches to
// /v1/ask/batch, and counts the wire-reported cache flags.
func TestRunHTTPDriver(t *testing.T) {
	ts, singles, batches := stubDaemon(t)

	cfg := smokeConfig(t)
	cfg.url = ts.URL
	cfg.concurrency = 1 // serialize so the stub's cached-flag pattern is deterministic
	cfg.requests = 10
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Mode != "http" || report.Target != ts.URL {
		t.Fatalf("mode/target = %q/%q", report.Mode, report.Target)
	}
	if singles.Load() != 10 || batches.Load() != 0 {
		t.Fatalf("wire counts = %d singles / %d batches, want 10/0", singles.Load(), batches.Load())
	}
	if report.Errors != 0 || report.Cache.Hits != 9 {
		t.Fatalf("report = %d errors, %d hits (stub caches all but the first)", report.Errors, report.Cache.Hits)
	}
	// The single endpoint omits cache_tier (a pre-v4 server): cached
	// answers must fall back to counting as exact hits.
	if report.Cache.ExactHits != 9 || report.Cache.SemanticHits != 0 {
		t.Fatalf("legacy-wire tier split = %d/%d, want 9/0", report.Cache.ExactHits, report.Cache.SemanticHits)
	}

	cfg.batch = 5
	report, err = run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if batches.Load() != 2 {
		t.Fatalf("batch wire count = %d, want 2", batches.Load())
	}
	if report.Questions != 10 || report.Errors != 0 {
		t.Fatalf("batch report: %d questions, %d errors", report.Questions, report.Errors)
	}
	// The batch endpoint reports cache_tier: the stub marks the odd
	// half of each 5-item batch semantic (2 per batch, 2 batches).
	if report.Cache.SemanticHits != 4 || report.Cache.ExactHits != 0 {
		t.Fatalf("wire tier split = exact %d / semantic %d, want 0/4",
			report.Cache.ExactHits, report.Cache.SemanticHits)
	}
}

// TestRunHTTPErrorsReported: a failing server surfaces as per-item
// errors, not a crash, and strict-gate inputs (Errors) reflect it.
func TestRunHTTPErrorsReported(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ask", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cfg := smokeConfig(t)
	cfg.url = ts.URL
	cfg.requests = 5
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 5 {
		t.Fatalf("errors = %d, want 5", report.Errors)
	}
	if report.ErrorSample == "" {
		t.Fatal("error sample empty despite failures")
	}
}

// TestRunRequestTimeoutCountsCanceled: an unmeetable -request-timeout
// turns every question into a canceled outcome — counted separately
// from errors, with nothing entering the cache tallies — exercising
// the engine's cancellation path end to end.
func TestRunRequestTimeoutCountsCanceled(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.reqTimeout = time.Nanosecond
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Canceled != report.Questions || report.Questions != 40 {
		t.Fatalf("canceled = %d of %d questions, want all 40", report.Canceled, report.Questions)
	}
	if report.Errors != 0 {
		t.Fatalf("timeouts misclassified as errors: %d (%s)", report.Errors, report.ErrorSample)
	}
	if report.Cache.Hits != 0 || report.Cache.Misses != 0 {
		t.Fatalf("canceled questions entered cache tallies: %+v", report.Cache)
	}
}

// TestRunSessionReplayPrefetch: the v6 end-to-end story — a
// session-replay plan against a small cache with prefetching on
// completes cleanly, echoes the replay knobs, reports the prefetch
// counter block, and keeps covered/wasted accounting internally
// consistent. Coverage needs eviction pressure plus learnable scripts;
// with follow=1 and a tiny cache the predictor reliably covers some
// follow-up turns, but exact counts are timing-dependent, so the
// assertions are structural (block present, rates within bounds).
func TestRunSessionReplayPrefetch(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.prefetch = true
	cfg.sessionReplay = true
	cfg.sessionTurns = 6
	cfg.follow = 1
	cfg.sessions = 8
	cfg.cacheSize = 6    // eviction pressure: prefetch must re-warm evicted follow-ups
	cfg.requests = 8 * 6 // ask the whole interleaved plan exactly once
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d (%s)", report.Errors, report.ErrorSample)
	}
	if !report.SessionReplay || report.SessionTurns != 6 || report.FollowRatio != 1 {
		t.Fatalf("replay echoes = %v/%d/%v", report.SessionReplay, report.SessionTurns, report.FollowRatio)
	}
	if report.Questions != 48 {
		t.Fatalf("questions = %d, want 48 (8 sessions x 6 turns)", report.Questions)
	}
	pf := report.Prefetch
	if pf == nil {
		t.Fatal("prefetch block missing under -prefetch")
	}
	if pf.Predictions == 0 {
		t.Fatalf("no predictions over a follow=1 replay: %+v", pf)
	}
	if pf.Covered > pf.Issued {
		t.Fatalf("covered %d exceeds issued %d", pf.Covered, pf.Issued)
	}
	c := report.Cache
	if c.CoveredMissRate < 0 || c.CoveredMissRate > 1 || c.WastedPrefetchRate < 0 || c.WastedPrefetchRate > 1 {
		t.Fatalf("prefetch rates out of range: %+v", c)
	}
	if pf.Covered > 0 && c.CoveredMissRate == 0 {
		t.Fatalf("covered %d but covered_miss_rate 0", pf.Covered)
	}
}

// TestRunSessionReplayDeterministicPlan: two replay runs with the same
// seed ask the same questions — the answer digest, a pure function of
// the plan, must agree (prefetch timing may shift hit/miss splits, so
// the digest is the right invariant).
func TestRunSessionReplayDeterministicPlan(t *testing.T) {
	mk := func() config {
		cfg := smokeConfig(t)
		cfg.sessionReplay = true
		cfg.sessionTurns = 5
		cfg.follow = 0.8
		cfg.requests = 40
		return cfg
	}
	a, err := run(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if a.AnswerDigest != b.AnswerDigest {
		t.Fatalf("same-seed replay runs diverge: digest %s vs %s", a.AnswerDigest, b.AnswerDigest)
	}
}

// TestRunRejectsBadPrefetchConfigs: prefetch knobs that cannot mean
// anything — against a remote daemon, gating without prefetching, an
// out-of-range follow ratio, replay without turns, or sweeping with
// timing-dependent fills — are configuration errors.
func TestRunRejectsBadPrefetchConfigs(t *testing.T) {
	cfg := smokeConfig(t)
	cfg.url = "http://127.0.0.1:1"
	cfg.prefetch = true
	if _, err := run(cfg); err == nil {
		t.Fatal("-prefetch accepted in -url mode (the daemon owns its prefetcher)")
	}
	cfg = smokeConfig(t)
	cfg.minCoveredRate = 0.1
	if _, err := run(cfg); err == nil {
		t.Fatal("-min-covered-rate accepted without -prefetch")
	}
	cfg = smokeConfig(t)
	cfg.sessionReplay = true
	cfg.follow = 1.5
	cfg.sessionTurns = 4
	if _, err := run(cfg); err == nil {
		t.Fatal("-follow 1.5 accepted")
	}
	cfg = smokeConfig(t)
	cfg.sessionReplay = true
	cfg.sessionTurns = 0
	if _, err := run(cfg); err == nil {
		t.Fatal("-session-replay accepted with zero -session-turns")
	}
	cfg = smokeConfig(t)
	cfg.policySweep = true
	cfg.prefetch = true
	if _, err := run(cfg); err == nil {
		t.Fatal("-policy-sweep accepted -prefetch (timing-dependent residency)")
	}
}

// TestRunHTTPCanceledEnvelope: a daemon replying with the v1
// cancellation envelope (504 deadline-exceeded) is counted as
// canceled, not as an error.
func TestRunHTTPCanceledEnvelope(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ask", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		fmt.Fprint(w, `{"error":{"code":"deadline-exceeded","message":"request deadline exceeded"}}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cfg := smokeConfig(t)
	cfg.url = ts.URL
	cfg.requests = 5
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Canceled != 5 || report.Errors != 0 {
		t.Fatalf("canceled/errors = %d/%d, want 5/0", report.Canceled, report.Errors)
	}
}

// countingStub is a minimal /v1/ask daemon stub that tallies how many
// requests it answered — the probe for round-robin distribution.
func countingStub(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var served atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/ask", func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"answer":"stub","cached":false,"cache_tier":"cold"}`)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &served
}

// TestRunMultiTargetRoundRobin: a comma-separated -url list spreads
// requests evenly across targets, and the v7 targets block reports the
// per-target split.
func TestRunMultiTargetRoundRobin(t *testing.T) {
	tsA, servedA := countingStub(t)
	tsB, servedB := countingStub(t)

	cfg := smokeConfig(t)
	cfg.url = tsA.URL + "," + tsB.URL
	cfg.concurrency = 1 // serialize so the round-robin split is exact
	cfg.requests = 10
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d (%s)", report.Errors, report.ErrorSample)
	}
	if servedA.Load() != 5 || servedB.Load() != 5 {
		t.Fatalf("round-robin split = %d/%d, want 5/5", servedA.Load(), servedB.Load())
	}
	if len(report.Targets) != 2 {
		t.Fatalf("targets block has %d rows, want 2: %+v", len(report.Targets), report.Targets)
	}
	for i, tr := range report.Targets {
		if tr.Requests != 5 || tr.Errors != 0 || tr.Retried != 0 {
			t.Fatalf("target %d = %+v, want 5 clean requests", i, tr)
		}
	}
	if report.Targets[0].URL != tsA.URL || report.Targets[1].URL != tsB.URL {
		t.Fatalf("targets out of -url order: %+v", report.Targets)
	}
}

// TestRunMultiTargetFailover: a dead target's share of the load fails
// over to the surviving target — the run completes with zero question
// errors, and the targets block attributes every transport failure and
// retry to the dead node.
func TestRunMultiTargetFailover(t *testing.T) {
	ts, served := countingStub(t)
	dead := "http://127.0.0.1:1" // reserved port: connection refused immediately

	cfg := smokeConfig(t)
	cfg.url = ts.URL + "," + dead
	cfg.concurrency = 1
	cfg.requests = 10
	report, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		t.Fatalf("errors = %d, want 0 — dead-target requests must fail over (%s)", report.Errors, report.ErrorSample)
	}
	if served.Load() != 10 {
		t.Fatalf("live target served %d, want all 10", served.Load())
	}
	if len(report.Targets) != 2 {
		t.Fatalf("targets block has %d rows: %+v", len(report.Targets), report.Targets)
	}
	live, gone := report.Targets[0], report.Targets[1]
	if live.Errors != 0 || live.Retried != 0 || live.Requests != 10 {
		t.Fatalf("live target = %+v, want 10 clean requests", live)
	}
	if gone.Requests != 5 || gone.Errors != 5 || gone.Retried != 5 {
		t.Fatalf("dead target = %+v, want 5 requests all failed and retried", gone)
	}
}
