package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cachemind/internal/db"
	"cachemind/internal/db/dbtest"
	"cachemind/internal/engine"
	"cachemind/internal/retriever"
)

func testStore(t testing.TB) *db.Store {
	return dbtest.Store(t, dbtest.Config{})
}

// newTestServer boots the full HTTP stack over a fresh engine with no
// request timeout and no queue bound.
func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng, err := engine.New(engine.Config{Store: testStore(t)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, 4, 0, 0).handler())
	t.Cleanup(ts.Close)
	return ts, eng
}

func postAsk(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/ask", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// decodeEnvelope parses and sanity-checks the v1 error envelope.
func decodeEnvelope(t *testing.T, data []byte) wireError {
	t.Helper()
	var env errorEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("error envelope unparseable: %s (%v)", data, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope incomplete: %s", data)
	}
	return env.Error
}

const askQuestion = "List all unique PCs in mcf under LRU."

func TestAskValidAndCached(t *testing.T) {
	ts, eng := newTestServer(t)
	body := fmt.Sprintf(`{"session":"s1","question":%q}`, askQuestion)

	resp, data := postAsk(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var first askResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatalf("bad JSON %s: %v", data, err)
	}
	if first.Answer == "" || first.Cached || first.Session != "s1" || first.Category == "" {
		t.Fatalf("unexpected first response: %+v", first)
	}
	if first.Retriever != "ranger" || first.Model != "gpt-4o" || first.TotalMS <= 0 {
		t.Fatalf("response metadata missing: %+v", first)
	}
	if first.Context != "" || first.Queries != nil {
		t.Fatalf("provenance leaked without opt-in: %+v", first)
	}

	resp, data = postAsk(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp.StatusCode)
	}
	var second askResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("repeated question not served from cache: %+v", second)
	}
	if second.Answer != first.Answer || second.Verdict != first.Verdict {
		t.Fatalf("cached answer diverges: %q vs %q", second.Answer, first.Answer)
	}
	// The cache counters prove the retriever was skipped on the repeat.
	if st := eng.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters = %+v, want 1 hit / 1 miss", st)
	}
}

// TestAskOptionsProvenance: options.provenance controls the context
// and query-trace fields on the wire.
func TestAskOptionsProvenance(t *testing.T) {
	ts, _ := newTestServer(t)
	q := "What is the miss rate in mcf under belady?"

	_, data := postAsk(t, ts, fmt.Sprintf(`{"session":"p","question":%q,"options":{"provenance":"full"}}`, q))
	var full askResponse
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatalf("bad JSON %s: %v", data, err)
	}
	if full.Context == "" || len(full.Queries) == 0 {
		t.Fatalf("provenance=full response incomplete: %+v", full)
	}

	resp, data := postAsk(t, ts, fmt.Sprintf(`{"session":"p","question":%q,"options":{"provenance":"everything"}}`, q))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown provenance status = %d, body %s", resp.StatusCode, data)
	}
	if e := decodeEnvelope(t, data); e.Code != string(engine.CodeInvalidRequest) {
		t.Fatalf("unknown provenance code = %q", e.Code)
	}
}

func TestAskRejectsBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	for name, body := range map[string]string{
		"malformed JSON":     `{"session":"s1","question":`,
		"empty question":     `{"session":"s1","question":"  "}`,
		"unknown field":      `{"session":"s1","question":"x","model":"gpt-4o"}`,
		"oversized question": fmt.Sprintf(`{"session":"s1","question":%q}`, strings.Repeat("a", maxQuestionBytes+1)),
		"oversized body":     fmt.Sprintf(`{"session":"s1","question":%q}`, strings.Repeat("a", maxAskBodyBytes)),
	} {
		resp, data := postAsk(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, resp.StatusCode, data)
			continue
		}
		if e := decodeEnvelope(t, data); e.Code != string(engine.CodeInvalidRequest) {
			t.Errorf("%s: envelope code = %q, want invalid-request", name, e.Code)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/ask")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/ask status = %d, want 405", resp.StatusCode)
	}
}

func TestSessionEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Get(ts.URL + "/v1/sessions/ghost")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status = %d, want 404", resp.StatusCode)
	}
	if e := decodeEnvelope(t, data); e.Code != string(engine.CodeSessionNotFound) {
		t.Fatalf("unknown session code = %q, want session-not-found", e.Code)
	}

	postAsk(t, ts, fmt.Sprintf(`{"session":"alice","question":%q}`, askQuestion))
	postAsk(t, ts, `{"session":"bob","question":"What is the miss rate in mcf under belady?"}`)

	resp, err = http.Get(ts.URL + "/v1/sessions/alice")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session status = %d", resp.StatusCode)
	}
	var sess sessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	if sess.Session != "alice" || len(sess.Turns) != 1 || sess.Turns[0].Question != askQuestion {
		t.Fatalf("alice's log wrong (leak across sessions?): %+v", sess)
	}
	if !strings.Contains(sess.Memory, askQuestion) {
		t.Fatalf("conversation-memory view missing the asked question: %q", sess.Memory)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(data)) != "ok" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, data)
	}
}

func TestMetrics(t *testing.T) {
	ts, _ := newTestServer(t)
	postAsk(t, ts, fmt.Sprintf(`{"session":"m","question":%q}`, askQuestion))
	postAsk(t, ts, fmt.Sprintf(`{"session":"m","question":%q}`, askQuestion))
	// One invalid request so the error-code counters move.
	postAsk(t, ts, `{"session":"m","question":"  "}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"cachemind_questions_total 2",
		"cachemind_asks_canceled_total 0",
		`cachemind_cache_policy{policy="lru"} 1`,
		"cachemind_answer_cache_hits_total 1",
		"cachemind_answer_cache_misses_total 1",
		"cachemind_answer_cache_bypasses_total 0",
		// Tier-labeled hit split (semantic disabled here: all exact).
		"cachemind_semantic_threshold 0.000",
		`cachemind_cache_hits_total{tier="exact"} 1`,
		`cachemind_cache_hits_total{tier="semantic"} 0`,
		`cachemind_cache_shard_hits_total{shard="0",tier="exact"}`,
		`cachemind_cache_shard_hits_total{shard="0",tier="semantic"}`,
		// Per-shard cache lines, one block per effective cache shard.
		`cachemind_answer_cache_shard_hits_total{shard="0"}`,
		`cachemind_answer_cache_shard_misses_total{shard="0"}`,
		`cachemind_answer_cache_shard_entries{shard="0"}`,
		// Prefetcher lines are always present; this server runs without
		// -prefetch, so the gauge reads 0 and the counters are zero.
		"cachemind_prefetch_enabled 0",
		"cachemind_prefetch_predictions_total 0",
		"cachemind_prefetch_issued_total 0",
		"cachemind_prefetch_covered_total 0",
		"cachemind_prefetch_wasted_total 0",
		"cachemind_prefetch_dropped_total 0",
		"cachemind_sessions_active 1",
		"cachemind_http_requests_total",
		"cachemind_http_errors_total 1",
		"cachemind_workers 4",
		"cachemind_request_timeout_seconds 0.000",
		"cachemind_engine_shards",
		// Per-route latencies: the asks above must have landed in the
		// ask route's histogram.
		`cachemind_route_requests_total{route="ask"} 3`,
		`cachemind_route_latency_ms{route="ask",quantile="0.5"}`,
		`cachemind_route_latency_ms{route="ask",quantile="0.95"}`,
		`cachemind_route_latency_ms{route="ask",quantile="0.99"}`,
		`cachemind_route_latency_ms_max{route="ask"}`,
		`cachemind_route_requests_total{route="ask_batch"} 0`,
		// Responses by code: two OK asks, one invalid-request, nothing
		// canceled.
		`cachemind_route_responses_total{route="ask",code="ok"} 2`,
		`cachemind_route_responses_total{route="ask",code="invalid-request"} 1`,
		`cachemind_route_responses_total{route="ask",code="canceled"} 0`,
		`cachemind_route_responses_total{route="ask",code="deadline-exceeded"} 0`,
		`cachemind_route_responses_total{route="ask",code="overloaded"} 0`,
		`cachemind_route_responses_total{route="session",code="session-not-found"} 0`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("metrics missing %q:\n%s", want, data)
		}
	}
}

// TestMetricsPrefetchEnabled: a daemon booted with prefetching on
// reports the enabled gauge and advances the prediction counter once a
// session shows a learnable turn sequence (the -prefetch smoke path CI
// greps for).
func TestMetricsPrefetchEnabled(t *testing.T) {
	eng, err := engine.New(engine.Config{
		Store:    testStore(t),
		Prefetch: engine.PrefetchConfig{Enabled: true, Workers: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	ts := httptest.NewServer(newServer(eng, 4, 0, 0).handler())
	t.Cleanup(ts.Close)

	second := "What is the miss rate in mcf under belady?"
	for i := 0; i < 2; i++ {
		sid := fmt.Sprintf("flow%d", i)
		postAsk(t, ts, fmt.Sprintf(`{"session":%q,"question":%q}`, sid, askQuestion))
		postAsk(t, ts, fmt.Sprintf(`{"session":%q,"question":%q}`, sid, second))
		if !eng.PrefetchQuiesce(10 * time.Second) {
			t.Fatal("prefetcher did not quiesce")
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(data), "cachemind_prefetch_enabled 1") {
		t.Fatalf("metrics missing enabled gauge:\n%s", data)
	}
	st := eng.Stats().Prefetch
	if st.Predictions == 0 {
		t.Fatalf("no predictions after a repeated two-turn session: %+v", st)
	}
	if !strings.Contains(string(data), "cachemind_prefetch_predictions_total") ||
		!strings.Contains(string(data), "cachemind_prefetch_issued_total") {
		t.Fatalf("metrics missing prefetch counters:\n%s", data)
	}
}

// TestMetricsOneLabelSetPerName parses the whole /metrics body of a
// sharded daemon with the semantic tier on, after a cold ask, an exact
// hit and a semantic hit. Every metric name must carry exactly one
// label-key set — a name emitted both with and without a label
// double-counts under sum() — and each hit-split family must sum to
// cachemind_answer_cache_hits_total.
func TestMetricsOneLabelSetPerName(t *testing.T) {
	eng, err := engine.New(engine.Config{Store: testStore(t), SemanticThreshold: 0.85, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, 4, 0, 0).handler())
	t.Cleanup(ts.Close)
	for _, q := range []string{askQuestion, askQuestion, strings.ToUpper(askQuestion)} {
		if resp, data := postAsk(t, ts, fmt.Sprintf(`{"session":"m","question":%q}`, q)); resp.StatusCode != http.StatusOK {
			t.Fatalf("ask %q: status %d, body %s", q, resp.StatusCode, data)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)

	labelSets := map[string]string{} // metric name -> sorted label keys
	sums := map[string]float64{}     // metric name -> sum over its series
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, keys, value, err := parseMetricLine(line)
		if err != nil {
			t.Fatalf("unparseable metrics line %q: %v", line, err)
		}
		if prev, ok := labelSets[name]; ok && prev != keys {
			t.Errorf("metric %s emitted with label sets {%s} and {%s}", name, prev, keys)
		}
		labelSets[name] = keys
		sums[name] += value
	}
	total := sums["cachemind_answer_cache_hits_total"]
	if total != 2 {
		t.Fatalf("cachemind_answer_cache_hits_total = %v, want 2 (one exact, one semantic)", total)
	}
	for _, family := range []string{
		"cachemind_cache_hits_total",
		"cachemind_cache_shard_hits_total",
		"cachemind_answer_cache_shard_hits_total",
	} {
		if sums[family] != total {
			t.Errorf("sum(%s) = %v, want cachemind_answer_cache_hits_total %v", family, sums[family], total)
		}
	}
}

// parseMetricLine splits one text-exposition line into its metric
// name, its label keys (sorted, comma-joined) and its value.
func parseMetricLine(line string) (name, keys string, value float64, err error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", 0, fmt.Errorf("no value")
	}
	if value, err = strconv.ParseFloat(line[sp+1:], 64); err != nil {
		return "", "", 0, err
	}
	series := line[:sp]
	name, labels, hasLabels := strings.Cut(series, "{")
	if !hasLabels {
		return name, "", value, nil
	}
	labels, ok := strings.CutSuffix(labels, "}")
	if !ok {
		return "", "", 0, fmt.Errorf("unterminated label set")
	}
	var ks []string
	for labels != "" {
		key, rest, ok := strings.Cut(labels, "=")
		if !ok {
			return "", "", 0, fmt.Errorf("label without value")
		}
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return "", "", 0, err
		}
		ks = append(ks, key)
		labels = strings.TrimPrefix(rest[len(quoted):], ",")
	}
	sort.Strings(ks)
	return name, strings.Join(ks, ","), value, nil
}

// TestServeWithPaperCachePolicy: the daemon stack runs end-to-end over
// a non-default eviction policy (the -cache-policy path): repeats are
// served cached, answers match the LRU-backed engine byte for byte,
// and /metrics carries the policy label.
func TestServeWithPaperCachePolicy(t *testing.T) {
	store := testStore(t)
	eng, err := engine.New(engine.Config{Store: store, CachePolicy: "hawkeye", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, 4, 0, 0).handler())
	t.Cleanup(ts.Close)

	body := fmt.Sprintf(`{"session":"p","question":%q}`, askQuestion)
	_, first := postAsk(t, ts, body)
	_, second := postAsk(t, ts, body)
	var a1, a2 askResponse
	if err := json.Unmarshal(first, &a1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &a2); err != nil {
		t.Fatal(err)
	}
	if a1.Cached || !a2.Cached || a1.Answer != a2.Answer || a1.Answer == "" {
		t.Fatalf("hawkeye-backed cache misbehaved: first %+v, second %+v", a1, a2)
	}

	refEng, err := engine.New(engine.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refEng.Ask(context.Background(), engine.Request{SessionID: "r", Question: askQuestion})
	if err != nil {
		t.Fatal(err)
	}
	if a1.Answer != ref.Text {
		t.Fatal("hawkeye-backed answer diverges from the LRU-backed engine")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if want := `cachemind_cache_policy{policy="hawkeye"} 1`; !strings.Contains(string(data), want) {
		t.Fatalf("metrics missing %q:\n%s", want, data)
	}
}

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/ask/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestAskBatchEndpoint: a batch is answered in order, per-item errors
// carry the typed envelope object without aborting the batch, and
// repeated questions are served cached.
func TestAskBatchEndpoint(t *testing.T) {
	ts, eng := newTestServer(t)
	second := "What is the miss rate in mcf under belady?"
	body := fmt.Sprintf(`[
		{"session":"b1","question":%q},
		{"session":"b2","question":"   "},
		{"session":"b1","question":%q},
		{"session":"b3","question":%q}
	]`, askQuestion, second, askQuestion)

	resp, data := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, data)
	}
	var results []batchResult
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("bad JSON %s: %v", data, err)
	}
	if len(results) != 4 {
		t.Fatalf("got %d results, want 4 (order-preserving)", len(results))
	}
	if results[0].Error != nil || results[0].Answer == "" || results[0].Session != "b1" {
		t.Fatalf("item 0: %+v", results[0])
	}
	if results[1].Error == nil || results[1].Answer != "" {
		t.Fatalf("item 1 (empty question) should carry only an error: %+v", results[1])
	}
	if results[1].Error.Code != string(engine.CodeInvalidRequest) || results[1].Error.Message == "" {
		t.Fatalf("item 1 error envelope = %+v, want invalid-request", results[1].Error)
	}
	if results[2].Error != nil || results[2].Answer == "" {
		t.Fatalf("item 2: %+v", results[2])
	}
	// Item 3 repeats item 0's question: one of the two is a cache miss
	// and the other a hit (they may race inside one batch, so assert
	// via the engine counters instead of the per-item flag).
	if results[3].Answer != results[0].Answer {
		t.Fatalf("repeated question diverges: %q vs %q", results[3].Answer, results[0].Answer)
	}
	st := eng.Stats()
	if st.Questions != 3 {
		t.Fatalf("questions counter = %d, want 3 (invalid item never reached the pipeline)", st.Questions)
	}
	if st.CacheHits+st.CacheMisses != 3 {
		t.Fatalf("cache lookups = %d, want 3", st.CacheHits+st.CacheMisses)
	}

	// A second identical batch is fully cached and byte-identical.
	resp, data = postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp.StatusCode)
	}
	var again []batchResult
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i].Answer != results[i].Answer {
			t.Fatalf("repeat batch item %d diverges: %+v vs %+v", i, again[i], results[i])
		}
		if (again[i].Error == nil) != (results[i].Error == nil) {
			t.Fatalf("repeat batch item %d error mismatch", i)
		}
		if again[i].Error == nil && !again[i].Cached {
			t.Fatalf("repeat batch item %d not served from cache: %+v", i, again[i])
		}
	}
}

func TestAskBatchRejectsBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	tooMany := "[" + strings.Repeat(`{"session":"s","question":"q"},`, maxBatchItems) + `{"session":"s","question":"q"}]`
	for name, body := range map[string]string{
		"malformed JSON":   `[{"session":"s1"`,
		"object not array": `{"session":"s1","question":"x"}`,
		"empty batch":      `[]`,
		"unknown field":    `[{"session":"s1","question":"x","model":"gpt-4o"}]`,
		"too many items":   tooMany,
	} {
		resp, data := postBatch(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %.120s)", name, resp.StatusCode, data)
			continue
		}
		if e := decodeEnvelope(t, data); e.Code != string(engine.CodeInvalidRequest) {
			t.Errorf("%s: envelope code = %q, want invalid-request", name, e.Code)
		}
	}
}

// TestAskBatchPerItemValidation: an oversized question or unknown
// option in one slot yields that slot's error object while the rest of
// the batch is answered — the documented contract (only a malformed/
// empty/oversized *batch* fails whole-request).
func TestAskBatchPerItemValidation(t *testing.T) {
	ts, eng := newTestServer(t)
	body := fmt.Sprintf(`[
		{"session":"v1","question":%q},
		{"session":"v2","question":%q},
		{"session":"v3","question":"x","options":{"provenance":"everything"}}
	]`, askQuestion, strings.Repeat("a", maxQuestionBytes+1))

	resp, data := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (body %.200s)", resp.StatusCode, data)
	}
	var results []batchResult
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if results[0].Error != nil || results[0].Answer == "" {
		t.Fatalf("valid item lost to a sibling's validation failure: %+v", results[0])
	}
	for i := 1; i < 3; i++ {
		if results[i].Error == nil || results[i].Error.Code != string(engine.CodeInvalidRequest) {
			t.Fatalf("item %d error = %+v, want in-slot invalid-request", i, results[i].Error)
		}
		if results[i].Answer != "" {
			t.Fatalf("pre-failed item %d carries an answer", i)
		}
	}
	// Pre-failed items never reached the pipeline.
	if st := eng.Stats(); st.Questions != 1 {
		t.Fatalf("questions counter = %d, want 1", st.Questions)
	}
}

// waitRetriever parks every retrieval until the request context is
// done, then reports the cancellation — a stand-in for a slow
// retrieval stage.
type waitRetriever struct{}

func (waitRetriever) Name() string { return "wait" }

func (waitRetriever) Retrieve(ctx context.Context, q string) retriever.Context {
	<-ctx.Done()
	return retriever.Context{Question: q, Retriever: "wait", Err: ctx.Err()}
}

// TestRequestTimeout: with -request-timeout set, a slow cold ask comes
// back 504 with the deadline-exceeded envelope, and the code counter
// moves.
func TestRequestTimeout(t *testing.T) {
	eng, err := engine.New(engine.Config{Store: testStore(t), CustomRetriever: waitRetriever{}})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, 2, 20*time.Millisecond, 0)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	resp, data := postAsk(t, ts, fmt.Sprintf(`{"session":"t","question":%q}`, askQuestion))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, data)
	}
	if e := decodeEnvelope(t, data); e.Code != string(engine.CodeDeadlineExceeded) {
		t.Fatalf("envelope code = %q, want deadline-exceeded", e.Code)
	}
	if st := eng.Stats(); st.Canceled != 1 {
		t.Fatalf("engine canceled counter = %d, want 1", st.Canceled)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mdata, _ := io.ReadAll(mresp.Body)
	if want := `cachemind_route_responses_total{route="ask",code="deadline-exceeded"} 1`; !strings.Contains(string(mdata), want) {
		t.Fatalf("metrics missing %q:\n%s", want, mdata)
	}
}

// TestOverloadShedding: with one worker busy, one request queued, and
// -max-queue 1, the next request is shed immediately with the 503
// overloaded envelope instead of queueing behind them.
func TestOverloadShedding(t *testing.T) {
	release := make(chan struct{})
	eng, err := engine.New(engine.Config{Store: testStore(t), CustomRetriever: gateRetriever{release: release}})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, 1, 0, 1)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	// Request 1 occupies the single worker (blocked in retrieval);
	// request 2 queues for it.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/ask", "application/json",
				strings.NewReader(fmt.Sprintf(`{"session":"c%d","question":%q}`, i, askQuestion)))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d status = %d", i, resp.StatusCode)
			}
		}(i)
	}
	// Wait until one request holds the worker and one is queued.
	for srv.queued.Load() < 1 {
		time.Sleep(time.Millisecond)
	}

	resp, data := postAsk(t, ts, fmt.Sprintf(`{"session":"shed","question":%q}`, askQuestion))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", resp.StatusCode, data)
	}
	if e := decodeEnvelope(t, data); e.Code != string(engine.CodeOverloaded) {
		t.Fatalf("envelope code = %q, want overloaded", e.Code)
	}

	close(release)
	wg.Wait()
}

// gateRetriever blocks until release is closed (or the context is
// canceled), then serves a canned answer-free bundle.
type gateRetriever struct{ release chan struct{} }

func (gateRetriever) Name() string { return "gate" }

func (g gateRetriever) Retrieve(ctx context.Context, q string) retriever.Context {
	select {
	case <-g.release:
	case <-ctx.Done():
		return retriever.Context{Question: q, Retriever: "gate", Err: ctx.Err()}
	}
	return retriever.Context{Question: q, Retriever: "gate", Text: "gated evidence"}
}

// TestConcurrentAsks serves parallel POSTs (run under -race in CI) and
// checks every response agrees with the serial answer.
func TestConcurrentAsks(t *testing.T) {
	ts, eng := newTestServer(t)
	ref, err := engine.New(engine.Config{Store: testStore(t), CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Ask(context.Background(), engine.Request{SessionID: "ref", Question: askQuestion})
	if err != nil {
		t.Fatal(err)
	}

	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"session":"client-%d","question":%q}`, c, askQuestion)
			resp, err := http.Post(ts.URL+"/v1/ask", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var ar askResponse
			if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d", c, resp.StatusCode)
				return
			}
			if ar.Answer != want.Text {
				errs <- fmt.Errorf("client %d: answer diverges from serial reference", c)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Sessions != clients || st.CacheHits+st.CacheMisses != clients {
		t.Fatalf("stats after concurrent asks = %+v", st)
	}
}

// TestServeSemanticTier: the full daemon stack over a semantic-enabled
// engine — a paraphrase is served from the semantic tier with
// cache_tier/similarity on the wire, the per-request knobs
// (no_semantic, min_similarity) behave, bad knobs produce the v1
// error envelope, and /metrics carries a nonzero tier="semantic"
// counter.
func TestServeSemanticTier(t *testing.T) {
	eng, err := engine.New(engine.Config{Store: testStore(t), SemanticThreshold: 0.85, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, 4, 0, 0).handler())
	t.Cleanup(ts.Close)

	askJSON := func(body string) askResponse {
		t.Helper()
		resp, data := postAsk(t, ts, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, body %s", resp.StatusCode, data)
		}
		var ar askResponse
		if err := json.Unmarshal(data, &ar); err != nil {
			t.Fatalf("bad JSON %s: %v", data, err)
		}
		return ar
	}

	first := askJSON(fmt.Sprintf(`{"session":"s","question":%q}`, askQuestion))
	if first.CacheTier != "cold" || first.Cached || first.Similarity != 0 {
		t.Fatalf("first ask = tier %q, cached %v, similarity %v; want cold", first.CacheTier, first.Cached, first.Similarity)
	}

	para := strings.ToUpper(askQuestion)
	second := askJSON(fmt.Sprintf(`{"session":"s","question":%q}`, para))
	if second.CacheTier != "semantic" || !second.Cached {
		t.Fatalf("paraphrase = tier %q, cached %v; want semantic", second.CacheTier, second.Cached)
	}
	if second.Similarity < 0.85 || second.Similarity > 1 {
		t.Fatalf("paraphrase similarity = %v, want within [0.85, 1]", second.Similarity)
	}
	if second.Answer != first.Answer {
		t.Fatalf("semantic serve not byte-identical:\ncold:     %q\nsemantic: %q", first.Answer, second.Answer)
	}

	// min_similarity above the paraphrase's score forces the cold path.
	softer := "Please " + strings.ToLower(askQuestion)
	strictAsk := askJSON(fmt.Sprintf(`{"session":"s","question":%q,"options":{"min_similarity":0.999}}`, softer))
	if strictAsk.CacheTier != "cold" {
		t.Fatalf("min_similarity 0.999 paraphrase tier = %q, want cold", strictAsk.CacheTier)
	}

	// no_semantic skips the tier even though neighbors now abound.
	another := strings.ToLower(askQuestion)
	if ar := askJSON(fmt.Sprintf(`{"session":"s","question":%q,"options":{"no_semantic":true}}`, another)); ar.CacheTier != "cold" {
		t.Fatalf("no_semantic paraphrase tier = %q, want cold", ar.CacheTier)
	}

	// An out-of-range min_similarity is an invalid request on the wire.
	resp, data := postAsk(t, ts, fmt.Sprintf(`{"session":"s","question":%q,"options":{"min_similarity":1.5}}`, askQuestion))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("min_similarity 1.5 status = %d, body %s", resp.StatusCode, data)
	}
	if e := decodeEnvelope(t, data); e.Code != string(engine.CodeInvalidRequest) {
		t.Fatalf("min_similarity 1.5 code = %q", e.Code)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mdata, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		"cachemind_semantic_threshold 0.850",
		`cachemind_cache_hits_total{tier="semantic"} 1`,
		`cachemind_cache_shard_hits_total{shard="0",tier="semantic"} 1`,
	} {
		if !strings.Contains(string(mdata), want) {
			t.Errorf("metrics missing %q:\n%s", want, mdata)
		}
	}
}
