package engine_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cachemind/internal/db"
	"cachemind/internal/db/dbtest"
	"cachemind/internal/engine"
	"cachemind/internal/retriever"
)

// testStore is a small shared database: two workloads, two policies,
// short traces — enough for every intent to resolve while keeping the
// -race hammer fast.
func testStore(t testing.TB) *db.Store {
	return dbtest.Store(t, dbtest.Config{Workloads: []string{"mcf", "lbm"}, Accesses: 4000})
}

// questions covers every routing tier: grounded lookups, comparisons,
// analysis-tier synthesis, and a trick premise.
var questions = []string{
	"List all unique PCs in mcf under LRU.",
	"What is the miss rate in lbm under belady?",
	"Which policy has the lowest miss rate in mcf?",
	"Which workload has the highest miss rate?",
	"Why does belady outperform lru in mcf?",
	"What is the average reuse distance in mcf under lru?",
	"How many times does PC 0xdead00 appear in lbm under lru?",
}

func newEngine(t testing.TB, cfg engine.Config) *engine.Engine {
	t.Helper()
	cfg.Store = testStore(t)
	e, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// ask is the test shorthand for a default-options ask under a
// background context.
func ask(e *engine.Engine, session, question string) (engine.Response, error) {
	return e.Ask(context.Background(), engine.Request{SessionID: session, Question: question})
}

// mustAsk fails the test on any ask error.
func mustAsk(t testing.TB, e *engine.Engine, session, question string) engine.Response {
	t.Helper()
	resp, err := ask(e, session, question)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestConfigValidation(t *testing.T) {
	if _, err := engine.New(engine.Config{}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := engine.New(engine.Config{Store: testStore(t), Model: "gpt-9"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := engine.New(engine.Config{Store: testStore(t), Retriever: "grep"}); err == nil {
		t.Fatal("unknown retriever accepted")
	}
	e := newEngine(t, engine.Config{})
	_, err := ask(e, "s", "   ")
	if err == nil {
		t.Fatal("empty question accepted")
	}
	if code := engine.ErrorCode(err); code != engine.CodeInvalidRequest {
		t.Fatalf("empty question error code = %q, want %q", code, engine.CodeInvalidRequest)
	}
}

// TestCachedAnswerByteIdentical is the cache-determinism contract: the
// cached answer is byte-identical to the uncached one — both within one
// engine (second ask) and against a cache-disabled engine. Provenance
// is requested so the comparison covers the evidence bundle too.
func TestCachedAnswerByteIdentical(t *testing.T) {
	cached := newEngine(t, engine.Config{})
	uncached := newEngine(t, engine.Config{CacheSize: -1})
	withContext := func(e *engine.Engine, q string) engine.Response {
		t.Helper()
		resp, err := e.Ask(context.Background(), engine.Request{
			SessionID: "s", Question: q,
			Options: engine.Options{Provenance: engine.ProvenanceContext},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, q := range questions {
		first := withContext(cached, q)
		if first.Cached {
			t.Fatalf("first ask of %q reported cached", q)
		}
		second := withContext(cached, q)
		if !second.Cached {
			t.Fatalf("second ask of %q not served from cache", q)
		}
		ref := withContext(uncached, q)
		if ref.Cached {
			t.Fatalf("cache-disabled engine reported a cached answer for %q", q)
		}
		if second.Text != first.Text || first.Text != ref.Text {
			t.Fatalf("answers diverge for %q:\nfirst:  %q\nsecond: %q\nref:    %q",
				q, first.Text, second.Text, ref.Text)
		}
		if second.Verdict != ref.Verdict || second.Category != ref.Category ||
			second.Quality != ref.Quality || second.Context != ref.Context {
			t.Fatalf("cached metadata diverges for %q: %+v vs %+v", q, second, ref)
		}
	}
	st := cached.Stats()
	want := uint64(len(questions))
	if st.CacheHits != want || st.CacheMisses != want {
		t.Fatalf("cache counters = %d hits / %d misses, want %d / %d",
			st.CacheHits, st.CacheMisses, want, want)
	}
	if ust := uncached.Stats(); ust.CacheHits != 0 || ust.CacheMisses != 0 {
		t.Fatalf("disabled cache counted lookups: %+v", ust)
	}
}

// TestResponseMetadata: the Response carries the structured metadata
// the wire contract promises — shard, retriever, model, timings.
func TestResponseMetadata(t *testing.T) {
	e := newEngine(t, engine.Config{Shards: 4})
	resp := mustAsk(t, e, "s", questions[0])
	if resp.Retriever != "ranger" || resp.Model != "gpt-4o" {
		t.Fatalf("retriever/model = %q/%q", resp.Retriever, resp.Model)
	}
	if resp.Shard < 0 || resp.Shard >= 4 {
		t.Fatalf("shard = %d, want within [0,4)", resp.Shard)
	}
	if resp.Question != questions[0] || resp.SessionID != "s" {
		t.Fatalf("echoed request fields wrong: %+v", resp)
	}
	if resp.Timings.Retrieval <= 0 || resp.Timings.Total <= 0 {
		t.Fatalf("timings not populated: %+v", resp.Timings)
	}
	// Default provenance returns no context.
	if resp.Context != "" || resp.Queries != nil {
		t.Fatalf("provenance leaked without opt-in: %+v", resp)
	}
	// A cached repeat reports the original stage timings and the same
	// shard.
	again := mustAsk(t, e, "s", questions[0])
	if !again.Cached || again.Shard != resp.Shard {
		t.Fatalf("cached repeat: %+v", again)
	}
	if again.Timings.Retrieval != resp.Timings.Retrieval {
		t.Fatalf("cached retrieval timing diverges: %v vs %v",
			again.Timings.Retrieval, resp.Timings.Retrieval)
	}
}

// TestProvenanceLevels: none omits everything, context includes the
// bundle, full adds the per-query trace.
func TestProvenanceLevels(t *testing.T) {
	e := newEngine(t, engine.Config{})
	q := questions[1] // a miss-rate ask that executes queries
	askWith := func(p engine.Provenance) engine.Response {
		t.Helper()
		resp, err := e.Ask(context.Background(), engine.Request{
			SessionID: "s", Question: q, Options: engine.Options{Provenance: p},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	none := askWith(engine.ProvenanceNone)
	if none.Context != "" || none.Queries != nil {
		t.Fatalf("ProvenanceNone leaked provenance: %+v", none)
	}
	withCtx := askWith(engine.ProvenanceContext)
	if withCtx.Context == "" {
		t.Fatal("ProvenanceContext returned no context")
	}
	if withCtx.Queries != nil {
		t.Fatal("ProvenanceContext leaked the query trace")
	}
	full := askWith(engine.ProvenanceFull)
	if full.Context == "" || len(full.Queries) == 0 {
		t.Fatalf("ProvenanceFull incomplete: %+v", full)
	}
	if !strings.Contains(full.Queries[0], "workload=") {
		t.Fatalf("query trace not descriptive: %q", full.Queries[0])
	}
	// Provenance never changes the answer bytes or cache behaviour:
	// all three were the same cached entry after the first.
	if none.Text != withCtx.Text || withCtx.Text != full.Text {
		t.Fatal("provenance changed answer bytes")
	}
}

// TestNoMemoryOption: an ask with NoMemory never creates or touches
// the session.
func TestNoMemoryOption(t *testing.T) {
	e := newEngine(t, engine.Config{})
	_, err := e.Ask(context.Background(), engine.Request{
		SessionID: "quiet", Question: questions[0],
		Options: engine.Options{NoMemory: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.SessionTurns("quiet"); ok {
		t.Fatal("NoMemory ask created a session")
	}
	// A regular ask afterwards records normally.
	mustAsk(t, e, "quiet", questions[1])
	turns, ok := e.SessionTurns("quiet")
	if !ok || len(turns) != 1 || turns[0].Question != questions[1] {
		t.Fatalf("session log after mixed asks = %+v, ok=%v", turns, ok)
	}
}

// countingRetriever proves the retriever is bypassed on cache hits.
type countingRetriever struct {
	inner retriever.Retriever
	mu    sync.Mutex
	n     int
}

func (c *countingRetriever) Name() string { return c.inner.Name() }

func (c *countingRetriever) Retrieve(ctx context.Context, q string) retriever.Context {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return c.inner.Retrieve(ctx, q)
}

func (c *countingRetriever) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func TestRepeatedQuestionSkipsRetriever(t *testing.T) {
	cr := &countingRetriever{inner: retriever.NewRanger(testStore(t))}
	e := newEngine(t, engine.Config{CustomRetriever: cr})
	const repeats = 5
	q := questions[0]
	for i := 0; i < repeats; i++ {
		mustAsk(t, e, fmt.Sprintf("s%d", i), q)
	}
	if got := cr.count(); got != 1 {
		t.Fatalf("retriever invoked %d times for a repeated question, want 1", got)
	}
	st := e.Stats()
	if st.CacheHits != repeats-1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters = %d hits / %d misses, want %d / 1", st.CacheHits, st.CacheMisses, repeats-1)
	}
}

// TestBypassCacheOption: a bypassing ask always re-runs the retriever
// and never publishes, while counters ignore it entirely.
func TestBypassCacheOption(t *testing.T) {
	cr := &countingRetriever{inner: retriever.NewRanger(testStore(t))}
	e := newEngine(t, engine.Config{CustomRetriever: cr})
	q := questions[0]
	bypass := func() engine.Response {
		t.Helper()
		resp, err := e.Ask(context.Background(), engine.Request{
			SessionID: "s", Question: q, Options: engine.Options{BypassCache: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := bypass()
	second := bypass()
	if first.Cached || second.Cached {
		t.Fatal("bypassing asks reported cached")
	}
	if got := cr.count(); got != 2 {
		t.Fatalf("retriever invoked %d times under bypass, want 2", got)
	}
	if st := e.Stats(); st.CacheHits+st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Fatalf("bypass touched the cache: %+v", st)
	}
	if first.Text != second.Text {
		t.Fatal("bypassed answers diverge")
	}
	// A later default ask misses (nothing was published), then hits.
	if resp := mustAsk(t, e, "s", q); resp.Cached {
		t.Fatal("first non-bypass ask found a cache entry")
	}
	if resp := mustAsk(t, e, "s", q); !resp.Cached {
		t.Fatal("second non-bypass ask missed")
	}
}

// gatedRetriever blocks every Retrieve until release is closed (or the
// request context is canceled), so tests can pile up concurrent misses
// and cancel mid-retrieval.
type gatedRetriever struct {
	inner   retriever.Retriever
	release chan struct{}
	mu      sync.Mutex
	n       int
}

func (g *gatedRetriever) Name() string { return g.inner.Name() }

func (g *gatedRetriever) Retrieve(ctx context.Context, q string) retriever.Context {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	select {
	case <-g.release:
	case <-ctx.Done():
		return retriever.Context{Question: q, Retriever: g.Name(), Err: ctx.Err()}
	}
	return g.inner.Retrieve(ctx, q)
}

func (g *gatedRetriever) started() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// TestConcurrentColdAsksCoalesce: simultaneous first-asks of one
// question run a single retrieval (single-flight), not one per caller.
func TestConcurrentColdAsksCoalesce(t *testing.T) {
	gr := &gatedRetriever{inner: retriever.NewRanger(testStore(t)), release: make(chan struct{})}
	e := newEngine(t, engine.Config{CustomRetriever: gr})

	const callers = 8
	var wg sync.WaitGroup
	texts := make([]string, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			a, err := ask(e, "s", questions[0])
			if err != nil {
				t.Error(err)
				return
			}
			texts[c] = a.Text
		}(c)
	}
	// Let every caller reach the miss path while the leader's
	// retrieval is blocked, then release it.
	for gr.started() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(gr.release)
	wg.Wait()

	if retrievals := gr.started(); retrievals != 1 {
		t.Fatalf("%d concurrent cold asks ran %d retrievals, want 1", callers, retrievals)
	}
	for c := 1; c < callers; c++ {
		if texts[c] != texts[0] {
			t.Fatalf("coalesced answers diverge: %q vs %q", texts[c], texts[0])
		}
	}
}

// TestSessionMemoryIsolation asserts turns recorded in one session
// never appear in another, and that the full log round-trips.
func TestSessionMemoryIsolation(t *testing.T) {
	e := newEngine(t, engine.Config{})
	mustAsk(t, e, "alice", questions[0])
	mustAsk(t, e, "bob", questions[1])
	mustAsk(t, e, "alice", questions[2])

	alice, ok := e.SessionTurns("alice")
	if !ok || len(alice) != 2 {
		t.Fatalf("alice turns = %v, ok=%v; want 2 turns", alice, ok)
	}
	if alice[0].Question != questions[0] || alice[1].Question != questions[2] {
		t.Fatalf("alice's log holds wrong questions: %+v", alice)
	}
	bob, ok := e.SessionTurns("bob")
	if !ok || len(bob) != 1 || bob[0].Question != questions[1] {
		t.Fatalf("bob turns = %+v, ok=%v; want exactly %q", bob, ok, questions[1])
	}
	if _, ok := e.SessionTurns("carol"); ok {
		t.Fatal("unknown session reported ok")
	}
	if _, _, err := e.SessionView("carol", ""); engine.ErrorCode(err) != engine.CodeSessionNotFound {
		t.Fatalf("SessionView(carol) error = %v, want session-not-found", err)
	}
	if got := e.SessionIDs(); len(got) != 2 || got[0] != "alice" || got[1] != "bob" {
		t.Fatalf("SessionIDs = %v", got)
	}
}

// TestConcurrentAskDeterminism hammers Ask from many goroutines (run
// under -race in CI): every concurrent answer must be byte-identical to
// the serial reference, and every session log must contain exactly its
// own goroutine's questions in order.
func TestConcurrentAskDeterminism(t *testing.T) {
	hammer(t, engine.Config{})
}

// TestShardedConcurrentHammer runs the same 16-goroutine hammer pinned
// to 1 shard (global-lock semantics) and 8 shards, so -race covers both
// the degenerate and the contended shard layouts.
func TestShardedConcurrentHammer(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			hammer(t, engine.Config{Shards: shards})
		})
	}
}

// hammer is the shared body: concurrent asks against cfg must be
// byte-identical to a serial cache-less reference, and the session
// logs, question counter and cache lookups must balance exactly.
func hammer(t *testing.T, cfg engine.Config) {
	// Serial reference, no cache.
	ref := map[string]string{}
	refEngine := newEngine(t, engine.Config{CacheSize: -1})
	for _, q := range questions {
		ref[q] = mustAsk(t, refEngine, "ref", q).Text
	}

	e := newEngine(t, cfg)
	const goroutines = 16
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			session := fmt.Sprintf("session-%d", g)
			for r := 0; r < rounds; r++ {
				q := questions[(g+r)%len(questions)]
				a, err := ask(e, session, q)
				if err != nil {
					errs <- err
					return
				}
				if a.Text != ref[q] {
					errs <- fmt.Errorf("goroutine %d round %d: answer for %q diverges from serial reference", g, r, q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Per-session logs hold exactly the goroutine's own asks, in order.
	for g := 0; g < goroutines; g++ {
		session := fmt.Sprintf("session-%d", g)
		turns, ok := e.SessionTurns(session)
		if !ok || len(turns) != rounds {
			t.Fatalf("%s: %d turns, ok=%v; want %d", session, len(turns), ok, rounds)
		}
		for r, turn := range turns {
			want := questions[(g+r)%len(questions)]
			if turn.Question != want {
				t.Fatalf("%s turn %d: question %q leaked in, want %q", session, r, turn.Question, want)
			}
			if turn.Answer != ref[turn.Question] {
				t.Fatalf("%s turn %d: recorded answer diverges from reference", session, r)
			}
		}
	}

	st := e.Stats()
	if st.Questions != goroutines*rounds {
		t.Fatalf("questions counter = %d, want %d", st.Questions, goroutines*rounds)
	}
	if st.CacheHits+st.CacheMisses != goroutines*rounds {
		t.Fatalf("cache lookups = %d, want %d", st.CacheHits+st.CacheMisses, goroutines*rounds)
	}
	if st.Sessions != goroutines {
		t.Fatalf("sessions = %d, want %d", st.Sessions, goroutines)
	}
	if st.Canceled != 0 {
		t.Fatalf("canceled counter = %d for uncanceled load", st.Canceled)
	}
}

// TestSessionEviction: beyond MaxSessions, the least recently asked
// session is dropped wholesale. Shards: 1 pins the single global
// recency order this test asserts exactly (under sharding, recency
// competition is per shard).
func TestSessionEviction(t *testing.T) {
	e := newEngine(t, engine.Config{MaxSessions: 2, Shards: 1})
	for _, id := range []string{"s1", "s2", "s3"} {
		mustAsk(t, e, id, questions[0])
	}
	if _, ok := e.SessionTurns("s1"); ok {
		t.Fatal("s1 survived past the MaxSessions bound")
	}
	if got := e.SessionIDs(); len(got) != 2 || got[0] != "s2" || got[1] != "s3" {
		t.Fatalf("SessionIDs = %v, want [s2 s3]", got)
	}
	// Asking in s2 bumps its recency, so s4 evicts s3 instead.
	mustAsk(t, e, "s2", questions[1])
	mustAsk(t, e, "s4", questions[1])
	if _, ok := e.SessionTurns("s3"); ok {
		t.Fatal("s3 survived although s2 was more recently used")
	}
	if st := e.Stats(); st.SessionsEvicted != 2 || st.Sessions != 2 {
		t.Fatalf("stats = %+v, want 2 evicted / 2 live", st)
	}
}

// TestSessionTurnCompaction: the per-session log is compacted to the
// most recent MaxSessionTurns turns.
func TestSessionTurnCompaction(t *testing.T) {
	e := newEngine(t, engine.Config{MaxSessionTurns: 3})
	for i := 0; i < 10; i++ {
		mustAsk(t, e, "s", questions[i%len(questions)])
	}
	turns, ok := e.SessionTurns("s")
	if !ok {
		t.Fatal("session missing")
	}
	// Compaction triggers at 2*3 turns, keeping 3; ten asks leave 3+4.
	if len(turns) >= 6 {
		t.Fatalf("turn log not compacted: %d turns retained", len(turns))
	}
	// The retained tail must be the most recent asks, in order.
	for i, turn := range turns {
		want := questions[(10-len(turns)+i)%len(questions)]
		if turn.Question != want {
			t.Fatalf("turn %d after compaction = %q, want %q", i, turn.Question, want)
		}
	}
}

// TestSessionMemoryView: the conversation-memory block reflects the
// session's turns.
func TestSessionMemoryView(t *testing.T) {
	e := newEngine(t, engine.Config{})
	if _, ok := e.SessionMemory("ghost", ""); ok {
		t.Fatal("unknown session reported memory")
	}
	mustAsk(t, e, "s", questions[0])
	mem, ok := e.SessionMemory("s", "")
	if !ok || !strings.Contains(mem, questions[0]) {
		t.Fatalf("memory view = %q, ok=%v; want it to mention the asked question", mem, ok)
	}
	// Past the verbatim buffer, older turns appear as summaries.
	e2 := newEngine(t, engine.Config{MemoryTurns: 1})
	for i := 0; i < 3; i++ {
		mustAsk(t, e2, "s", questions[i])
	}
	mem, _ = e2.SessionMemory("s", "")
	if !strings.Contains(mem, "Earlier findings:") {
		t.Fatalf("memory view lacks summaries past the buffer:\n%s", mem)
	}
}

// BenchmarkSessionView measures GET /v1/sessions/{id}'s engine side on
// a full session at the default bound: 2*DefaultMaxSessionTurns-1
// distinct turns of about 500 bytes, the most a session retains. The
// memory view is derived from the turn log on read, so with an
// upcoming question ("q") every distinct turn is embedded per view;
// without one ("no-q") the query embeds to zero and recall skips the
// embeddings.
func BenchmarkSessionView(b *testing.B) {
	e := newEngine(b, engine.Config{})
	turns := make([]engine.Turn, 2*engine.DefaultMaxSessionTurns-1)
	for i := range turns {
		turns[i] = engine.Turn{
			Question: fmt.Sprintf("What is the miss rate of PC 0x%06x in mcf under lru (turn %d)?", 0x400000+16*i, i),
			Answer:   fmt.Sprintf("PC 0x%06x misses %d times in mcf under lru. ", 0x400000+16*i, i) + strings.Repeat("Its accesses stream through the set with little reuse. ", 7),
		}
	}
	if e.ImportSessions([]engine.SessionSnapshot{{ID: "full", Turns: turns}}) != 1 {
		b.Fatal("session import failed")
	}
	if got, _ := e.SessionTurns("full"); len(got) != len(turns) {
		b.Fatalf("session holds %d turns, want %d", len(got), len(turns))
	}
	for _, bc := range []struct{ name, q string }{
		{"q", "Which PC misses most in mcf under lru?"},
		{"no-q", ""},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.SessionView("full", bc.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEngineCacheEviction: with a 1-entry cache, alternating questions
// never hit. Shards: 1 keeps the cache a single 1-entry LRU (each
// shard keeps at least one entry, so more shards would widen it).
func TestEngineCacheEviction(t *testing.T) {
	e := newEngine(t, engine.Config{CacheSize: 1, Shards: 1})
	for i := 0; i < 3; i++ {
		mustAsk(t, e, "s", questions[i%2])
	}
	st := e.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 3 || st.CacheEntries != 1 {
		t.Fatalf("stats = %+v, want 0 hits / 3 misses / 1 entry", st)
	}
}
