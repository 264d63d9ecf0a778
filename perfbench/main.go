// Command perfbench is CacheMind's ask-path benchmark. It builds a
// workload's question stream from a seed, drives the system from
// outside — engine.Ask in process, or POST /v1/ask against a cachemindd
// child — with a closed loop of two clients, checks every answer against
// a sequential reference pass, and prints every metric by name with its
// unit. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
//
// Usage, from the repository root (run.sh builds both binaries first):
//
//	bash perfbench/run.sh --workload hot-sessions --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload semantic-miss --seed 1 --seconds 10 --trace 1
//	bash perfbench/run.sh --sizing
//
// The workloads, metrics and the layer-to-metric claims are listed in
// claims.json beside this file.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"cachemind/internal/db"
	"cachemind/internal/engine"
)

//go:embed claims.json
var claimsJSON []byte

// claimTable is claims.json: every workload with its reason, every
// metric with its unit and how it is measured, and for each per-layer
// metric the end-to-end metrics it should move ("metric@workload") and
// the workloads where it should not.
type claimTable struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []claim `json:"end_to_end"`
	PerLayer []claim `json:"per_layer"`
}

type claim struct {
	Metric     string   `json:"metric"`
	Unit       string   `json:"unit"`
	Moves      []string `json:"moves,omitempty"`
	NoChangeOn []string `json:"no_change_on,omitempty"`
}

func loadClaims() (*claimTable, error) {
	var c claimTable
	if err := json.Unmarshal(claimsJSON, &c); err != nil {
		return nil, fmt.Errorf("claims.json: %w", err)
	}
	return &c, nil
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	daemon    string
	out       string
	accesses  int
	setupReps int
	warmup    time.Duration
	sizing    bool
}

// Run settings. They are fixed, so every run measures under the
// settings the bounds in BENCHMARK.json were set for.
const (
	// defaultSetupReps is how many set-ups a run times; setup_s is their
	// median.
	defaultSetupReps = 5
	// defaultWarmup is the closed-loop warmup before measuring.
	defaultWarmup = 2 * time.Second
	// measureSlices is how many slices an untraced run's measured window
	// is cut into.
	measureSlices = 10
)

func main() {
	o := options{accesses: defaultAccesses, setupReps: defaultSetupReps, warmup: defaultWarmup}
	flag.StringVar(&o.workload, "workload", "", "workload: hot-sessions, semantic-miss or http-hot")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's question stream")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	flag.StringVar(&o.daemon, "daemon", "", "cachemindd binary (needed by http-hot and by traced runs)")
	flag.StringVar(&o.out, "out", "", "directory for span files of traced runs (empty: not written)")
	flag.BoolVar(&o.sizing, "sizing", false, "measure the semantic-tier sizing facts of claims.json and exit")
	flag.Parse()

	var err error
	if o.sizing {
		err = runSizing(o, os.Stdout)
	} else {
		var res *result
		if res, err = run(o, os.Stdout); err == nil {
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Println(string(line))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runner is one benchmark run's state.
type runner struct {
	o   options
	w   workload
	out io.Writer

	store    *db.Store
	eng      *engine.Engine // in-process serving engine
	dmn      *daemon        // http-hot's serving daemon
	pool     *pool
	ref      *reference
	stream   []item
	sessions []string
	// setup holds each set-up's duration in seconds.
	setup []float64

	attempted, failed int64
	firstErr          string
	// notes annotate printed metrics (sample counts, probes).
	notes map[string]string
}

func run(o options, out io.Writer) (*result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds < 1 || o.setupReps < 1 {
		return nil, errors.New("seconds and set-up repetitions must be at least 1")
	}
	if (w.http || o.trace == 1) && o.daemon == "" {
		return nil, errors.New("--daemon is required for http-hot and for traced runs")
	}
	claims, err := loadClaims()
	if err != nil {
		return nil, err
	}
	r := &runner{o: o, w: w, out: out}
	defer r.close()

	mode := "untraced"
	if o.trace == 1 {
		mode = "traced"
	}
	fmt.Fprintf(out, "workload %s, seed %d, %s, closed loop with %d clients, %ds measured\n", w.name, o.seed, mode, clients, o.seconds)
	var vals map[string]float64
	var rows []claim
	if o.trace == 1 {
		vals, err = r.traced()
		rows = claims.PerLayer
	} else {
		vals, err = r.untraced()
		rows = claims.EndToEnd
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, c := range rows {
		v, ok := vals[c.Metric]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", c.Metric)
		}
		res.Metrics[c.Metric] = metricValue{Value: v, Unit: c.Unit}
		fmt.Fprintf(out, "  %-40s %14.6g %-6s %-11s%s\n", c.Metric, v, c.Unit, r.notes[c.Metric], claimNote(c))
	}
	fmt.Fprintf(out, "  %-40s %14.6g %-6s (%d failed of %d attempted)\n", "error_rate", ratio(float64(r.failed), float64(r.attempted)), "ratio", r.failed, r.attempted)
	if r.firstErr != "" {
		fmt.Fprintf(out, "first failure: %s\n", r.firstErr)
	}
	return res, nil
}

func claimNote(c claim) string {
	var parts []string
	if len(c.Moves) > 0 {
		parts = append(parts, "moves "+strings.Join(c.Moves, ", "))
	}
	if len(c.NoChangeOn) > 0 {
		parts = append(parts, "no change on "+strings.Join(c.NoChangeOn, ", "))
	}
	if len(parts) == 0 {
		return ""
	}
	return "  [" + strings.Join(parts, "; ") + "]"
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (r *runner) close() {
	if r.dmn != nil {
		r.dmn.stop()
	}
	if r.eng != nil {
		r.eng.Close()
	}
}

// count folds a phase's asks and failures into the run's totals.
func (r *runner) count(t *tally) {
	r.attempted += t.asks
	r.failed += t.failed
	if r.firstErr == "" {
		r.firstErr = t.firstErr
	}
}

// prepare sets the workload up: the store and engine (timed set-ups,
// recorded as db.Build and engine.New spans when tr is non-nil), the
// question pool, the stream, the reference pass over every question the
// stream asks and, for http-hot, the daemon (timed from exec until
// /readyz answers 200).
func (r *runner) prepare(tr *tracer) error {
	storeReps := r.o.setupReps
	if r.w.http && tr == nil {
		storeReps = 1 // the daemon's set-ups are the timed ones
	}
	for i := range storeReps {
		if r.eng != nil {
			r.eng.Close()
		}
		r.store, r.eng = nil, nil
		runtime.GC()
		start := time.Now()
		store, err := engine.OpenStore("", r.o.accesses, storeSeed, 0)
		if err != nil {
			return err
		}
		built := time.Now()
		eng, err := engine.New(r.w.engineConfig(store))
		if err != nil {
			return err
		}
		ready := time.Now()
		r.store, r.eng = store, eng
		if tr != nil {
			tr.add("db.Build", 0, int64(-1-i), start, built, "")
			tr.add("engine.New", 0, int64(-1-i), built, ready, "")
		}
		if !r.w.http {
			r.setup = append(r.setup, ready.Sub(start).Seconds())
		}
	}

	var err error
	if r.pool, err = buildPool(r.store, r.w); err != nil {
		return err
	}
	if r.stream, err = buildStream(r.pool, r.w, r.o.seed); err != nil {
		return err
	}
	if r.ref, err = buildReference(r.store, r.w, r.pool); err != nil {
		return err
	}
	fmt.Fprintf(r.out, "reference pass: %d distinct questions (%d originals), answer digest %016x, tg_accuracy_pct %.4f\n",
		len(r.pool.texts), len(r.pool.questions), r.ref.digest, r.ref.tgAccuracyPct)
	r.sessions = sessionNames(r.w.sessions)

	if r.w.http {
		daemonReps := r.o.setupReps
		if tr != nil {
			daemonReps = 1 // a traced run reports no setup_s
		}
		for range daemonReps {
			if r.dmn != nil {
				r.dmn.stop()
				r.dmn = nil
			}
			d, err := startDaemon(r.o.daemon, r.w.daemonArgs(r.o.accesses))
			if err != nil {
				return err
			}
			r.dmn = d
			r.setup = append(r.setup, d.setup.Seconds())
		}
	}
	return nil
}

// asker returns the workload's serving asker and its release function.
func (r *runner) asker() (asker, func(), error) {
	if !r.w.http {
		return &inprocAsker{eng: r.eng, texts: r.pool.texts, sessions: r.sessions}, func() {}, nil
	}
	d, err := newHTTPAsker(r.dmn.addr, r.pool.texts, r.sessions)
	if err != nil {
		return nil, nil, err
	}
	return d, d.close, nil
}

// heapCounters are cumulative allocation counters of the serving
// process.
type heapCounters struct{ objects, bytes uint64 }

func (r *runner) heap() (heapCounters, error) {
	if r.dmn != nil {
		m, b, err := r.dmn.memStats()
		return heapCounters{m, b}, err
	}
	o, b := heapAllocs()
	return heapCounters{o, b}, nil
}

func (r *runner) servingPID() string {
	if r.dmn != nil {
		return r.dmn.pid()
	}
	return "self"
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced() (map[string]float64, error) {
	if err := r.prepare(nil); err != nil {
		return nil, err
	}
	if r.dmn != nil {
		// Over HTTP the in-process store only served the reference pass;
		// release it so this process's garbage collector does not mark
		// it on every cycle while the daemon competes for the same CPUs.
		r.eng.Close()
		r.eng, r.store = nil, nil
	}
	d, done, err := r.asker()
	if err != nil {
		return nil, err
	}
	defer done()
	var cursor atomic.Int64
	warm := runPhase(d, r.stream, r.ref, &cursor, r.o.warmup, nil)
	r.count(&warm)

	// The measured window is cut into slices of at least a second; qps,
	// p50 and p99 are medians over the slices, so a burst of load from
	// outside moves one slice rather than the run's figure.
	n := min(measureSlices, r.o.seconds)
	slice := time.Duration(r.o.seconds) * time.Second / time.Duration(n)
	runtime.GC()
	h0, err := r.heap()
	if err != nil {
		return nil, err
	}
	var m tally
	var qps, p50, p99 []float64
	for range n {
		s := runPhase(d, r.stream, r.ref, &cursor, slice, nil)
		if s.lat.Count < 1000 {
			return nil, fmt.Errorf("only %d asks in a %v slice; its p99 needs at least 1000", s.lat.Count, slice)
		}
		qps = append(qps, s.qps())
		p50 = append(p50, ms(s.lat.Quantile(0.50)))
		p99 = append(p99, ms(s.lat.Quantile(0.99)))
		m.merge(&s)
	}
	h1, err := r.heap()
	if err != nil {
		return nil, err
	}
	r.count(&m)
	rss, err := peakRSSMB(r.servingPID())
	if err != nil {
		return nil, err
	}
	answered := float64(m.answered())
	fmt.Fprintf(r.out, "measured %d asks in %.3fs over %d slices (tiers: %d exact, %d semantic, %d cold); %d set-ups\n",
		m.asks, m.elapsed.Seconds(), n, m.tiers[tierExact], m.tiers[tierSemantic], m.tiers[tierCold], len(r.setup))
	return map[string]float64{
		"setup_s":         median(r.setup),
		"qps":             median(qps),
		"p50_ms":          median(p50),
		"p99_ms":          median(p99),
		"allocs_per_ask":  ratio(float64(h1.objects-h0.objects), answered),
		"bytes_per_ask":   ratio(float64(h1.bytes-h0.bytes), answered),
		"peak_rss_mb":     rss,
		"tg_accuracy_pct": r.ref.tgAccuracyPct,
	}, nil
}

// Traced-run sizing.
const (
	// replayPerTier bounds how many traced asks of each tier are
	// replayed layer by layer.
	replayPerTier = 500
	// probeWarm and probeRun size the probes that measure a layer the
	// workload itself does not reach.
	probeWarm = 500 * time.Millisecond
	probeRun  = 1500 * time.Millisecond
	// probeThreshold is the semantic threshold of the semantic probe on
	// workloads whose tier is off (semantic-miss's setting).
	probeThreshold = 0.98
)

// traced measures the per-layer metrics. The stream starts on a cold
// cache with root spans recorded, so the trace holds cold asks as well
// as warm ones; then an untraced and a traced phase of equal length give
// the tracing overhead; then a sample of the traced asks is replayed
// layer by layer. Layers the workload never reaches — the semantic tier
// where it is off, the HTTP hop in process — are measured by probes.
func (r *runner) traced() (map[string]float64, error) {
	tr := newTracer()
	if err := r.prepare(tr); err != nil {
		return nil, err
	}
	d, done, err := r.asker()
	if err != nil {
		return nil, err
	}
	defer done()
	var cursor atomic.Int64
	rec := newRecorder()
	cold := runPhase(d, r.stream, r.ref, &cursor, r.o.warmup, rec)
	r.count(&cold)

	// Untraced and traced slices alternate, so drift over the run (the
	// sessions' memory growing, load from outside) falls on both sides of
	// the tracing-overhead comparison.
	const overheadSlices = 4
	slice := time.Duration(r.o.seconds) * time.Second * 2 / 5 / overheadSlices
	var s0, s1 engine.Stats
	if r.dmn == nil {
		s0 = r.eng.Stats()
	}
	var u, t tally
	for range overheadSlices {
		pu := runPhase(d, r.stream, r.ref, &cursor, slice, nil)
		pt := runPhase(d, r.stream, r.ref, &cursor, slice, rec)
		u.merge(&pu)
		t.merge(&pt)
	}
	r.count(&u)
	r.count(&t)
	if r.dmn == nil {
		s1 = r.eng.Stats()
	}

	var resident int
	if r.dmn != nil {
		if resident, err = r.dmn.cacheEntries(); err != nil {
			return nil, err
		}
	} else {
		resident = s1.CacheEntries
	}
	residentQs := r.residentQuestions(cursor.Load(), resident)
	tierOn := r.w.semantic > 0
	rp := newReplayer(r.store, tierOn, residentQs)
	// Start the replay on a fresh GC cycle: the live phases leave a large
	// heap mid-cycle, and mark assists would otherwise make the replayed
	// calls slower than the live asks were.
	runtime.GC()
	replayed := rec.sample(replayPerTier)
	for _, rs := range replayed {
		it := r.stream[rs.pos%int64(len(r.stream))]
		rp.replay(tr, rs, r.pool.texts[it.q], it.session, r.w.http)
	}
	if rp.mismatches > 0 {
		r.failed += int64(rp.mismatches)
		r.firstErr = fmt.Sprintf("%d replayed cold answers differ from the served ones", rp.mismatches)
	}

	// Allocation probes on an engine with the serving configuration (for
	// http-hot, the in-process one prepare built beside the daemon).
	allocsMem := cachedAskAllocs(r.eng, r.pool.texts[0], engine.Options{})
	allocsNoMem := cachedAskAllocs(r.eng, r.pool.texts[0], engine.Options{NoMemory: true})
	addAllocs := r.memoryAddAllocs()

	// Layers this workload does not reach are measured by probes. The
	// HTTP hop's costs come from a traced phase's natural mix of asks
	// (the replayed sample is stratified by tier).
	semTrace, httpTrace, wire := tr, tr, t
	both := u
	both.merge(&t)
	agree, semServes := both.semAgree, both.tiers[tierSemantic]
	if !tierOn {
		semTrace = newTracer()
		if agree, semServes, err = r.semanticProbe(semTrace, residentQs); err != nil {
			return nil, err
		}
	}
	if !r.w.http {
		httpTrace = newTracer()
		if wire, err = r.httpProbe(httpTrace); err != nil {
			return nil, err
		}
	}

	var exact, semantic, misses float64
	if r.dmn != nil {
		exact, semantic, misses = float64(both.tiers[tierExact]), float64(both.tiers[tierSemantic]), float64(both.tiers[tierCold])
	} else {
		exact = float64(s1.CacheExactHits - s0.CacheExactHits)
		semantic = float64(s1.CacheSemanticHits - s0.CacheSemanticHits)
		misses = float64(s1.CacheMisses - s0.CacheMisses)
	}
	served := exact + semantic + misses

	lt, st := tr.layerTimes(), semTrace.layerTimes()
	// Span-derived metrics carry their sample count, and a mark when a
	// probe measured them, into the printed report.
	r.notes = map[string]string{}
	note := func(metric string, n int, probe bool) {
		r.notes[metric] = fmt.Sprintf("n=%d", n)
		if probe {
			r.notes[metric] += " probe"
		}
	}
	spans := func(metric string, xs []float64, from *tracer) []float64 {
		note(metric, len(xs), from != tr)
		return xs
	}
	note("cachemindd.server_us", int(wire.wire.Count), httpTrace != tr)
	note("cachemindd.wire_us", int(wire.wire.Count), httpTrace != tr)
	// The engine's own time on a cold ask is read live from each cold
	// reply's timings: the total inside the engine minus retrieval and
	// generation.
	var coldSelf []float64
	for _, rs := range rec.retained(tierCold) {
		coldSelf = append(coldSelf, float64(rs.serverNS-rs.pipelineNS)/1e3)
	}
	note("engine.cold_ask_us", len(coldSelf), false)
	fmt.Fprintf(r.out, "trace: %d spans, %d asks replayed (%d cold), %d resident entries\n",
		len(tr.spans), len(replayed), rp.cold, resident)
	fmt.Fprintf(r.out, "end-to-end beside it (untraced slices): qps %.6g, p50_ms %.6g, p99_ms %.6g; traced slices: qps %.6g\n",
		u.qps(), ms(u.lat.Quantile(0.50)), ms(u.lat.Quantile(0.99)), t.qps())
	if err := r.writeTrace(tr, ""); err != nil {
		return nil, err
	}
	if semTrace != tr {
		if err := r.writeTrace(semTrace, "-semantic-probe"); err != nil {
			return nil, err
		}
	}
	if httpTrace != tr {
		if err := r.writeTrace(httpTrace, "-http-probe"); err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"memory.add_us":                         median(spans("memory.add_us", lt.self["memory.Conversation.Add"], tr)),
		"memory.allocs_per_add":                 addAllocs,
		"engine.exact_ask_us":                   median(spans("engine.exact_ask_us", lt.self["engine.Ask/exact"], tr)),
		"engine.allocs_per_cached_ask":          allocsMem,
		"engine.allocs_per_cached_ask_nomemory": allocsNoMem,
		"embed.bestvec_us":                      median(spans("embed.bestvec_us", lt.self["embed.Index.BestVec"], tr)),
		"engine.resident_entries":               float64(resident),
		"engine.semantic_ask_us":                median(spans("engine.semantic_ask_us", st.self["engine.Ask/semantic"], semTrace)),
		"embed.embed_us":                        median(spans("embed.embed_us", lt.self["embed.Embed"], tr)),
		"nlu.parse_us":                          median(spans("nlu.parse_us", lt.self["nlu.Parse"], tr)),
		"retriever.retrieve_us":                 median(spans("retriever.retrieve_us", lt.self["retriever.Retrieve"], tr)),
		"retriever.queries_per_ask":             ratio(float64(rp.queries), float64(rp.cold)),
		"retriever.degraded_rate":               ratio(float64(rp.degraded), float64(rp.cold)),
		"queryir.execute_us":                    median(spans("queryir.execute_us", lt.self["queryir.Execute"], tr)),
		"generator.answer_us":                   median(spans("generator.answer_us", lt.self["generator.Answer"], tr)),
		"engine.cold_ask_us":                    median(coldSelf),
		"engine.exact_hit_rate":                 ratio(exact, served),
		"engine.semantic_hit_rate":              ratio(semantic, served),
		"engine.miss_rate":                      ratio(misses, served),
		"engine.semantic_agree_rate":            ratio(float64(agree), float64(semServes)),
		"cachemindd.server_us":                  ratio(float64(wire.serverNS)/1e3, float64(wire.wire.Count)),
		"cachemindd.wire_us":                    float64(wire.wire.Quantile(0.50)) / 1e3,
		"db.build_s":                            median(spans("db.build_s", lt.incl["db.Build"], tr)) / 1e6,
		"engine.new_ms":                         median(spans("engine.new_ms", lt.incl["engine.New"], tr)) / 1e3,
		"bench.trace_overhead_pct":              100 * (u.qps() - t.qps()) / u.qps(),
	}, nil
}

// residentQuestions approximates the cache's resident set: the last n
// distinct questions asked before stream position end.
func (r *runner) residentQuestions(end int64, n int) []string {
	seen := map[int32]bool{}
	var out []string
	for pos := end - 1; pos >= 0 && len(out) < n; pos-- {
		it := r.stream[pos%int64(len(r.stream))]
		if !seen[it.q] {
			seen[it.q] = true
			out = append(out, r.pool.texts[it.q])
		}
		if end-pos > int64(len(r.stream)) {
			break
		}
	}
	return out
}

// memoryAddAllocs measures heap allocations per memory.Conversation.Add
// over the workload's (question, answer) pairs.
func (r *runner) memoryAddAllocs() float64 {
	const n = 2048
	conv := newConversation()
	runtime.GC()
	o0, _ := heapAllocs()
	for i := range n {
		it := r.stream[i]
		conv.Add(r.pool.texts[it.q], r.ref.answers[it.q])
	}
	o1, _ := heapAllocs()
	return float64(o1-o0) / n
}

// writeTrace writes t's spans under the output directory, if one is set.
func (r *runner) writeTrace(t *tracer, suffix string) error {
	if r.o.out == "" {
		return nil
	}
	path := filepath.Join(r.o.out, "traces", fmt.Sprintf("%s-seed%d%s.jsonl", r.w.name, r.o.seed, suffix))
	if err := t.write(path); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
