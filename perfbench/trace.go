package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"

	"cachemind/internal/db"
	"cachemind/internal/embed"
	"cachemind/internal/engine"
	"cachemind/internal/generator"
	"cachemind/internal/llm"
	"cachemind/internal/memory"
	"cachemind/internal/nlu"
	"cachemind/internal/queryir"
	"cachemind/internal/retriever"
)

// span is one timed call, recorded from the benchmark's side of a layer
// boundary. Spans of one ask share Ask (its stream position); Parent is
// 0 for a root.
//
// Only roots are timed live. Their children are replays: the same layer
// call on the same inputs, run after the live phase, standing in for the
// time that call took inside the ask. A replayed child therefore starts
// after its parent ends, and self time is computed from durations: a
// span's duration minus its children's.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Ask    int64  `json:"ask"`
	Name   string `json:"name"`
	Tier   string `json:"tier,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(name string, parent, ask int64, start, end time.Time, tier engine.CacheTier) int64 {
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Ask: ask, Name: name, Tier: string(tier),
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// timed runs fn and records it as a span.
func (t *tracer) timed(name string, parent, ask int64, fn func()) int64 {
	start := time.Now()
	fn()
	return t.add(name, parent, ask, start, time.Now(), "")
}

// write stores the spans as JSON lines in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes are per-span-kind samples in microseconds: self times, and
// inclusive durations. engine.Ask spans are keyed by tier
// ("engine.Ask/exact").
type layerTimes struct {
	self, incl map[string][]float64
}

func (t *tracer) layerTimes() layerTimes {
	children := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	lt := layerTimes{self: map[string][]float64{}, incl: map[string][]float64{}}
	for _, s := range t.spans {
		key := s.Name
		if s.Tier != "" {
			key += "/" + s.Tier
		}
		lt.self[key] = append(lt.self[key], float64(s.End-s.Start-children[s.ID])/1e3)
		lt.incl[key] = append(lt.incl[key], float64(s.End-s.Start)/1e3)
		if s.Tier != "" {
			lt.self[s.Name] = append(lt.self[s.Name], float64(s.End-s.Start-children[s.ID])/1e3)
			lt.incl[s.Name] = append(lt.incl[s.Name], float64(s.End-s.Start)/1e3)
		}
	}
	return lt
}

// rootSpan is one live ask as the traced loop recorded it.
type rootSpan struct {
	pos        int64
	start, end time.Time
	tier       engine.CacheTier
	serverNS   int64
	pipelineNS int64
	text       string
}

// ringCap bounds each client's retained root spans per tier; older
// spans are overwritten, so a long traced phase stays in bounded memory.
const ringCap = 4096

// recorder keeps each client's most recent root spans per tier, in
// preallocated rings, so recording never allocates.
type recorder struct {
	rings [clients][numTiers][]rootSpan
	next  [clients][numTiers]int
}

func newRecorder() *recorder {
	r := &recorder{}
	for c := range r.rings {
		for t := range r.rings[c] {
			r.rings[c][t] = make([]rootSpan, 0, ringCap)
		}
	}
	return r
}

func (r *recorder) add(c int, s rootSpan) {
	t := tierIndex(s.tier)
	ring := r.rings[c][t]
	if len(ring) < cap(ring) {
		r.rings[c][t] = append(ring, s)
	} else {
		ring[r.next[c][t]] = s
	}
	r.next[c][t] = (r.next[c][t] + 1) % ringCap
}

// retained returns every retained span of tier t, in stream order.
func (r *recorder) retained(t int) []rootSpan {
	var all []rootSpan
	for c := range r.rings {
		all = append(all, r.rings[c][t]...)
	}
	slices.SortFunc(all, func(a, b rootSpan) int { return int(a.pos - b.pos) })
	return all
}

// sample returns up to per retained spans of each tier, evenly spaced
// over what was retained, in stream order.
func (r *recorder) sample(per int) []rootSpan {
	var out []rootSpan
	for t := range numTiers {
		all := r.retained(t)
		n := min(per, len(all))
		for i := range n {
			out = append(out, all[i*len(all)/n])
		}
	}
	slices.SortFunc(out, func(a, b rootSpan) int { return int(a.pos - b.pos) })
	return out
}

// addRoot records a live ask's root spans: engine.Ask in process, or the
// HTTP round trip with the server's total_ms as its engine.Ask child.
// It returns the engine.Ask span.
func addRoot(tr *tracer, rs rootSpan, http bool) int64 {
	if !http {
		return tr.add("engine.Ask", 0, rs.pos, rs.start, rs.end, rs.tier)
	}
	h := tr.add("cachemindd.http", 0, rs.pos, rs.start, rs.end, "")
	server := min(time.Duration(rs.serverNS), rs.end.Sub(rs.start))
	return tr.add("engine.Ask", h, rs.pos, rs.end.Add(-server), rs.end, rs.tier)
}

// replayer re-runs, on the benchmark's side, the layer calls a traced
// ask made inside the engine.
type replayer struct {
	store  *db.Store
	retr   retriever.Retriever
	vocab  nlu.Vocabulary
	gen    *generator.Generator
	tierOn bool
	// index holds the embeddings of the workload's resident questions:
	// BestVec over it costs what the semantic scan costs at that
	// resident count.
	index *embed.Index
	// convs are per-session conversation replicas for memory.Add.
	convs map[int32]*memory.Conversation

	// Counts over replayed cold asks.
	cold, queries, degraded, mismatches int
}

func newReplayer(store *db.Store, tierOn bool, resident []string) *replayer {
	profile, _ := llm.ByID(modelID)
	r := &replayer{
		store:  store,
		retr:   retriever.NewRanger(store),
		vocab:  retriever.VocabFromStore(store),
		gen:    generator.New(profile),
		tierOn: tierOn,
		index:  embed.NewIndex(),
		convs:  map[int32]*memory.Conversation{},
	}
	for _, q := range resident {
		r.index.AddVec(q, embed.Embed(q))
	}
	return r
}

// replay records one traced ask: its root, then the layer calls it made,
// as children of its engine.Ask span. q is the question and session the
// stream item's session.
func (r *replayer) replay(tr *tracer, rs rootSpan, q string, session int32, http bool) {
	ctx := context.Background()
	ask := rs.pos
	root := addRoot(tr, rs, http)
	if rs.tier != engine.TierExact && r.tierOn {
		var v embed.Vector
		tr.timed("embed.Embed", root, ask, func() { v = embed.Embed(q) })
		tr.timed("embed.Index.BestVec", root, ask, func() { r.index.BestVec(v) })
	}
	if rs.tier == engine.TierCold {
		var rctx retriever.Context
		rid := tr.timed("retriever.Retrieve", root, ask, func() { rctx = r.retr.Retrieve(ctx, q) })
		tr.timed("nlu.Parse", rid, ask, func() { _, _ = nlu.Parse(q, r.vocab) })
		for _, ex := range rctx.Executed {
			tr.timed("queryir.Execute", rid, ask, func() { _, _ = queryir.Execute(ctx, r.store, ex.Query) })
		}
		var ans generator.Answer
		tr.timed("generator.Answer", root, ask, func() { ans = r.generate(ctx, q, rctx) })
		r.cold++
		r.queries += len(rctx.Executed)
		if rctx.Err != nil {
			r.degraded++
		}
		if ans.Text != rs.text {
			r.mismatches++
		}
	}
	conv, ok := r.convs[session]
	if !ok || conv.Len() >= 2*engine.DefaultMaxSessionTurns {
		conv = newConversation()
		r.convs[session] = conv
	}
	qa := q + " " + rs.text
	add := tr.timed("memory.Conversation.Add", root, ask, func() { conv.Add(q, rs.text) })
	tr.timed("embed.Embed", add, ask, func() { embed.Embed(qa) })
	if !r.tierOn {
		// No ask ran the semantic scan; replay it under a root of its
		// own, so embed.Index.BestVec is measured at this workload's
		// resident count without charging it to the ask.
		v := embed.Embed(q)
		start := time.Now()
		scan := tr.add("bench.replay", 0, ask, start, start, "")
		tr.timed("embed.Index.BestVec", scan, ask, func() { r.index.BestVec(v) })
		tr.spans[scan-1].End = time.Since(tr.epoch).Nanoseconds()
	}
}

// generate routes a replayed answer the way the engine's pipeline does:
// analysis intents through the rubric-structured path, the rest through
// grounded synthesis.
func (r *replayer) generate(ctx context.Context, q string, rctx retriever.Context) generator.Answer {
	category := rctx.Parsed.Intent.String()
	var ans generator.Answer
	switch rctx.Parsed.Intent {
	case nlu.IntentConcept, nlu.IntentPolicyAnalysis, nlu.IntentSemanticAnalysis, nlu.IntentCodeGen:
		ans, _ = r.gen.AnalysisAnswer(ctx, q, category, q, rctx)
	default:
		ans, _ = r.gen.Answer(ctx, q, category, q, rctx)
	}
	return ans
}
