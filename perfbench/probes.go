package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"cachemind/internal/bench"
	"cachemind/internal/engine"
	"cachemind/internal/memory"
)

// newConversation is a session's conversation memory as the engine
// creates it.
func newConversation() *memory.Conversation { return memory.New(engine.DefaultMemoryTurns) }

// cachedAskAllocs measures heap allocations per exact-hit ask of q on
// eng with opts: the default path records the turn in a session, the
// NoMemory path does not.
func cachedAskAllocs(eng *engine.Engine, q string, opts engine.Options) float64 {
	const n = 2048
	ctx := context.Background()
	req := engine.Request{SessionID: "alloc-probe", Question: q, Options: opts}
	_, _ = eng.Ask(ctx, req) // make sure q is cached
	runtime.GC()
	o0, _ := heapAllocs()
	for range n {
		_, _ = eng.Ask(ctx, req)
	}
	o1, _ := heapAllocs()
	return float64(o1-o0) / n
}

// semanticProbe measures semantic serves on a workload whose tier is
// off: an engine with the workload's configuration and the tier at
// probeThreshold caches the resident questions, then answers each one's
// lower-case paraphrase. Each semantic serve is checked and traced into
// tr; it returns how many agreed with the original's reference answer.
func (r *runner) semanticProbe(tr *tracer, resident []string) (agree, serves int64, err error) {
	cfg := r.w.engineConfig(r.store)
	cfg.SemanticThreshold = probeThreshold
	eng, err := engine.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	index := map[string]int32{}
	for i, q := range r.pool.texts {
		index[q] = int32(i)
	}
	ctx := context.Background()
	for _, q := range resident {
		if _, err := eng.Ask(ctx, engine.Request{SessionID: "semantic-probe", Question: q}); err != nil {
			return 0, 0, fmt.Errorf("semantic probe: %w", err)
		}
	}
	rp := newReplayer(r.store, true, resident)
	for i, q := range resident {
		p := bench.Paraphrase(q, 0)
		start := time.Now()
		resp, err := eng.Ask(ctx, engine.Request{SessionID: "semantic-probe", Question: p})
		end := time.Now()
		r.attempted++
		if err != nil {
			return 0, 0, fmt.Errorf("semantic probe: %w", err)
		}
		if resp.Tier != engine.TierSemantic {
			continue
		}
		it := item{q: index[q], origin: index[q]}
		ok, agreed := r.ref.check(it, resp.Text, resp.Tier)
		if !ok {
			r.failed++
			r.firstErr = fmt.Sprintf("semantic probe served an unknown answer for %q", p)
			continue
		}
		serves++
		if agreed {
			agree++
		}
		rp.replay(tr, rootSpan{pos: int64(i), start: start, end: end, tier: resp.Tier, text: resp.Text}, p, 0, false)
	}
	return agree, serves, nil
}

// httpProbe measures the HTTP hop on an in-process workload: a
// cachemindd child with the workload's engine flags serves the
// workload's stream, and the round trips are traced into tr. It returns
// the traced phase's tally.
func (r *runner) httpProbe(tr *tracer) (tally, error) {
	dmn, err := startDaemon(r.o.daemon, r.w.daemonArgs(r.o.accesses))
	if err != nil {
		return tally{}, fmt.Errorf("http probe: %w", err)
	}
	defer dmn.stop()
	d, err := newHTTPAsker(dmn.addr, r.pool.texts, r.sessions)
	if err != nil {
		return tally{}, err
	}
	defer d.close()
	var cursor atomic.Int64
	warm := runPhase(d, r.stream, r.ref, &cursor, probeWarm, nil)
	r.count(&warm)
	rec := newRecorder()
	run := runPhase(d, r.stream, r.ref, &cursor, probeRun, rec)
	r.count(&run)
	for _, rs := range rec.sample(replayPerTier) {
		addRoot(tr, rs, true)
	}
	return run, nil
}
