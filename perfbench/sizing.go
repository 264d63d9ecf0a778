package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"cachemind/internal/engine"
)

// runSizing re-measures the sizing facts behind the semantic-miss
// workload (claims.json "sizing"):
//
//   - how many of the pool's distinct questions a semantic threshold
//     collapses onto cached neighbours, and how many of those serves
//     return another question's answer, at 0.85 and at 0.98;
//   - the share of a semantic-miss ask spent in the semantic tier: the
//     per-ask time of the stream with the tier at 0.98 against the tier
//     off, one client.
func runSizing(o options, out io.Writer) error {
	w, err := workloadByName("semantic-miss")
	if err != nil {
		return err
	}
	store, err := engine.OpenStore("", o.accesses, storeSeed, 0)
	if err != nil {
		return err
	}
	p, err := buildPool(store, w)
	if err != nil {
		return err
	}
	stream, err := buildStream(p, w, o.seed)
	if err != nil {
		return err
	}
	ref, err := buildReference(store, w, p)
	if err != nil {
		return err
	}
	ctx := context.Background()
	n := len(p.questions)
	order := rand.New(rand.NewSource(o.seed)).Perm(n)
	for _, th := range []float64{0.85, 0.98} {
		cfg := w.engineConfig(store)
		cfg.SemanticThreshold = th
		eng, err := engine.New(cfg)
		if err != nil {
			return err
		}
		var semantic, foreign int
		for _, i := range order {
			resp, err := eng.Ask(ctx, engine.Request{Question: p.texts[i], Options: engine.Options{NoMemory: true}})
			if err != nil {
				return err
			}
			if resp.Tier == engine.TierSemantic {
				semantic++
				if resp.Text != ref.answers[i] {
					foreign++
				}
			}
		}
		fmt.Fprintf(out, "threshold %.2f: %d distinct questions asked once each; %.1f%% served by the semantic tier (%.1f%% with another question's answer); %d resident entries\n",
			th, n, 100*float64(semantic)/float64(n), 100*float64(foreign)/float64(n), eng.Stats().CacheEntries)
		eng.Close()
	}

	sessions := sessionNames(w.sessions)
	const warm, measured = 4096, 16384
	perAsk := map[float64]time.Duration{}
	for _, th := range []float64{w.semantic, 0} {
		cfg := w.engineConfig(store)
		cfg.SemanticThreshold = th
		eng, err := engine.New(cfg)
		if err != nil {
			return err
		}
		var start time.Time
		for i, it := range stream[:warm+measured] {
			if i == warm {
				start = time.Now()
			}
			if _, err := eng.Ask(ctx, engine.Request{SessionID: sessions[it.session], Question: p.texts[it.q]}); err != nil {
				return err
			}
		}
		perAsk[th] = time.Since(start) / measured
		eng.Close()
	}
	on, off := perAsk[w.semantic], perAsk[0]
	fmt.Fprintf(out, "semantic-miss stream, one client: %.1f µs per ask with the tier at %.2f, %.1f µs with it off; the tier is %.1f%% of an ask\n",
		float64(on.Nanoseconds())/1e3, w.semantic, float64(off.Nanoseconds())/1e3, 100*float64(on-off)/float64(on))
	return nil
}
