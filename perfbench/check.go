package main

import (
	"context"
	"fmt"
	"hash/fnv"

	"cachemind/internal/bench"
	"cachemind/internal/db"
	"cachemind/internal/engine"
)

// reference is the answer key of one pool: every question answered once,
// sequentially, with the cache bypassed. Answers are pure functions of
// (retriever, model, question), so every measured answer can be checked
// against it byte for byte.
type reference struct {
	answers []string // per pool.texts index
	// known is the set of every reference answer: a semantic serve
	// returns some resident neighbour's answer, which must be one of
	// them.
	known map[string]struct{}
	// digest is FNV-64 over the original questions' answers in pool
	// order (the stream's paraphrases vary with the seed).
	digest uint64
	// tgAccuracyPct is the exact-match accuracy of the engine's verdicts
	// over the pool's trace-grounded questions.
	tgAccuracyPct float64
}

func buildReference(store *db.Store, w workload, p *pool) (*reference, error) {
	eng, err := engine.New(w.engineConfig(store))
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ref := &reference{answers: make([]string, len(p.texts)), known: map[string]struct{}{}}
	h := fnv.New64a()
	correct, graded := 0, 0
	for i, q := range p.texts {
		resp, err := eng.Ask(context.Background(), engine.Request{
			Question: q,
			Options:  engine.Options{BypassCache: true, NoMemory: true},
		})
		if err != nil {
			return nil, fmt.Errorf("reference answer for %q: %w", q, err)
		}
		ref.answers[i] = resp.Text
		ref.known[resp.Text] = struct{}{}
		if i >= len(p.questions) {
			continue
		}
		h.Write([]byte(resp.Text))
		h.Write([]byte{0})
		if p.questions[i].Tier() == bench.TierTG {
			graded++
			if bench.GradeExact(p.questions[i], resp.Verdict, 0, false) {
				correct++
			}
		}
	}
	ref.digest = h.Sum64()
	if graded > 0 {
		ref.tgAccuracyPct = 100 * float64(correct) / float64(graded)
	}
	return ref, nil
}

// check reports whether a served answer is correct for its stream item,
// and for a semantic serve whether it agrees with the reference answer
// of the question the item was drawn from. Exact and cold answers must
// equal the item's own reference answer; a semantic serve must equal
// the reference answer of some pool question.
func (r *reference) check(it item, text string, tier engine.CacheTier) (ok, agree bool) {
	if tier == engine.TierSemantic {
		_, ok = r.known[text]
		return ok, text == r.answers[it.origin]
	}
	return text == r.answers[it.q], false
}
