package bench

import (
	"math/rand"
	"strings"
)

// SampleMix draws a deterministic question stream of length n from the
// suite — the workload shape cmd/loadgen and the CI perf gate replay.
// repeat (clamped to [0, 1]) is the probability that a draw re-asks a
// question already emitted earlier in the stream, which is what
// exercises answer caches downstream; non-repeat draws walk a
// seed-shuffled order over the whole suite, so at repeat 0 the first
// len(suite) draws cover every question exactly once. The stream is a
// pure function of (suite, n, seed, repeat): identical inputs replay
// identical load, which is what makes BENCH_loadgen.json numbers
// comparable across runs and machines.
func SampleMix(s *Suite, n int, seed int64, repeat float64) []string {
	return SampleMixParaphrase(s, n, seed, repeat, 0)
}

// SampleMixParaphrase is SampleMix with paraphrase groups: paraphrase
// (clamped to [0, 1]) is the probability that a repeat draw is emitted
// as a reworded variant of the earlier question instead of its exact
// bytes — the similarity-group workload shape of rigrun's queries.json
// ("What is recursion?" / "Explain recursion" / "How does recursion
// work?"), which is what exercises a semantic cache tier downstream:
// a variant misses the exact hash but embeds within ~0.92 cosine of
// its original. At paraphrase 0 the stream is byte-identical to
// SampleMix for the same (suite, n, seed, repeat) — the paraphrase
// coin is only tossed when the knob is live, so the rng consumption
// (and therefore every draw) is unchanged.
func SampleMixParaphrase(s *Suite, n int, seed int64, repeat, paraphrase float64) []string {
	if n <= 0 || len(s.Questions) == 0 {
		return nil
	}
	if repeat < 0 {
		repeat = 0
	}
	if repeat > 1 {
		repeat = 1
	}
	if paraphrase < 0 {
		paraphrase = 0
	}
	if paraphrase > 1 {
		paraphrase = 1
	}
	rng := rand.New(rand.NewSource(seed))
	order := shuffledIndices(len(s.Questions), rng)
	out := make([]string, 0, n)
	next := 0 // position in order of the next fresh draw
	for len(out) < n {
		if len(out) > 0 && rng.Float64() < repeat {
			q := out[rng.Intn(len(out))]
			if paraphrase > 0 && rng.Float64() < paraphrase {
				q = Paraphrase(q, rng.Intn(ParaphraseVariants))
			}
			out = append(out, q)
			continue
		}
		if next == len(order) {
			// Suite exhausted: recycle the shuffled order so fresh
			// draws keep covering every question.
			next = 0
		}
		out = append(out, s.Questions[order[next]].Text)
		next++
	}
	return out
}

// ParaphraseVariants is how many distinct rewordings Paraphrase
// renders per question.
const ParaphraseVariants = 4

// Paraphrase deterministically rewords q into variant form — same
// intent, different bytes, high embedding similarity (≥ ~0.92 cosine
// under internal/embed for the suite's question shapes). Distinct
// suite questions from one template score just as high: in
// perfbench/claims.json a 0.85 semantic threshold served 97.6% of
// 2,173 distinct questions from 52 resident entries, 93.5% of them
// with another question's answer, so similarity alone does not
// separate a paraphrase from a different question. The transforms
// mirror rigrun's semantic similarity groups: surface rewordings a
// human would type for the same ask. A
// variant can coincide with q (e.g. lowercasing an already-lowercase
// question) — callers get an exact repeat then, which is still a valid
// draw.
func Paraphrase(q string, variant int) string {
	switch v := ((variant % ParaphraseVariants) + ParaphraseVariants) % ParaphraseVariants; v {
	case 0:
		return strings.ToLower(q)
	case 1:
		return strings.ToUpper(q)
	case 2:
		// Swap the terminal punctuation ("." ↔ "?"; append "?" when
		// bare) — the smallest byte change that still defeats the
		// exact hash.
		if strings.HasSuffix(q, "?") {
			return strings.TrimRight(q, "?") + "."
		}
		return strings.TrimRight(q, ".!") + "?"
	default:
		return "Please " + strings.ToLower(q)
	}
}
