package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"cachemind/internal/bench"
	"cachemind/internal/db"
	"cachemind/internal/engine"
)

// Shared store and serving configuration: cachemindd's defaults, so the
// in-process and HTTP workloads answer from byte-identical stores.
const (
	storeSeed       = 42 // cachemindd -seed default
	defaultAccesses = 60000
	retrieverName   = "ranger"
	modelID         = "gpt-4o"
	// clients is the closed loop's client count: each client sends its
	// next ask only after the previous reply arrives.
	clients = 2
)

// workload is one traffic mix: an engine configuration, the question
// pool its stream draws from, and how the stream is shaped.
type workload struct {
	name string
	// http drives a cachemindd child over POST /v1/ask instead of
	// calling engine.Ask in process.
	http bool
	// semantic and cacheSize are the engine knobs that differ from the
	// default configuration (0 keeps the default).
	semantic  float64
	cacheSize int
	// suites is how many bench.Generate seeds the pool merges.
	suites int
	// sessions is how many live sessions the stream spreads over.
	sessions int
	// paraphrase draws the stream from the semantic-tier gate's
	// paraphrase mix (mixRepeat, mixParaphrase) instead of uniformly.
	paraphrase bool
}

var workloads = []workload{
	{name: "hot-sessions", suites: 1, sessions: 256},
	{name: "semantic-miss", semantic: 0.98, cacheSize: 1024, suites: 50, sessions: 8, paraphrase: true},
	{name: "http-hot", http: true, suites: 1, sessions: 256},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// engineConfig is the workload's engine configuration over store.
func (w workload) engineConfig(store *db.Store) engine.Config {
	return engine.Config{
		Store:             store,
		Retriever:         retrieverName,
		Model:             modelID,
		SemanticThreshold: w.semantic,
		CacheSize:         w.cacheSize,
	}
}

// daemonArgs are the cachemindd flags matching engineConfig.
func (w workload) daemonArgs(accesses int) []string {
	return []string{
		"-accesses", strconv.Itoa(accesses),
		"-seed", strconv.Itoa(storeSeed),
		"-retriever", retrieverName,
		"-model", modelID,
		"-cache", strconv.Itoa(w.cacheSize),
		"-semantic-threshold", strconv.FormatFloat(w.semantic, 'g', -1, 64),
	}
}

// pool is every question a workload's stream can ask: the original
// suite questions, fixed per workload, then the paraphrases the seeded
// stream drew. The reference digest and tg_accuracy_pct cover the
// originals only, so they compare across seeds and commits.
type pool struct {
	// texts holds the original suite questions first (indexes below
	// len(questions)), then the stream's paraphrases.
	texts []string
	// questions are the originals with their ground truth.
	questions []bench.Question
}

func buildPool(store *db.Store, w workload) (*pool, error) {
	p := &pool{}
	seen := map[string]bool{}
	for s := 0; s < w.suites; s++ {
		suite, err := bench.Generate(store, storeSeed+int64(s))
		if err != nil {
			return nil, fmt.Errorf("generate suite %d: %w", s, err)
		}
		for _, q := range suite.Questions {
			if !seen[q.Text] {
				seen[q.Text] = true
				p.questions = append(p.questions, q)
				p.texts = append(p.texts, q.Text)
			}
		}
	}
	return p, nil
}

// item is one stream entry: who asks, what, and which original question
// it was drawn from.
type item struct {
	session int32
	q       int32 // index into pool.texts
	origin  int32 // index of the original in pool.questions
}

// streamLen bounds the generated stream; clients wrap around it.
const streamLen = 1 << 17

// The paraphrase mix of the repository's semantic-tier gate (Makefile
// loadgen-semantic: -repeat 0.5 -paraphrase 0.3): half the draws re-ask
// an earlier question, and 30% of those re-asks are bench.Paraphrase
// rewordings of it.
const (
	mixRepeat     = 0.5
	mixParaphrase = 0.3
)

// buildStream draws the workload's stream from seed, adding the
// paraphrases it asks to p. Without paraphrases every item is a uniform
// draw from the pool, which makes the stream repeat-heavy once the pool
// fits the cache. With them the questions are bench.SampleMixParaphrase
// over the pool's originals at the gate's mix, and each paraphrase is
// mapped back to the original it rewords.
func buildStream(p *pool, w workload, seed int64) ([]item, error) {
	rng := rand.New(rand.NewSource(seed))
	n := len(p.questions)
	out := make([]item, 0, streamLen)
	session := func() int32 { return int32(rng.Intn(w.sessions)) }
	if !w.paraphrase {
		for len(out) < streamLen {
			q := int32(rng.Intn(n))
			out = append(out, item{session: session(), q: q, origin: q})
		}
		return out, nil
	}
	origins := make(map[string]int32, n)
	for i, q := range p.questions {
		k := canonical(q.Text)
		if j, dup := origins[k]; dup {
			return nil, fmt.Errorf("questions %q and %q differ only as paraphrases", p.questions[j].Text, q.Text)
		}
		origins[k] = int32(i)
	}
	index := make(map[string]int32, len(p.texts))
	for i, t := range p.texts {
		index[t] = int32(i)
	}
	mix := bench.SampleMixParaphrase(&bench.Suite{Questions: p.questions}, streamLen, seed, mixRepeat, mixParaphrase)
	for _, t := range mix {
		q, ok := index[t]
		if !ok {
			q = int32(len(p.texts))
			index[t] = q
			p.texts = append(p.texts, t)
		}
		o, ok := origins[canonical(t)]
		if !ok {
			return nil, fmt.Errorf("stream question %q rewords no pool question", t)
		}
		out = append(out, item{session: session(), q: q, origin: o})
	}
	return out, nil
}

// canonical undoes the rewordings bench.Paraphrase makes — case,
// terminal punctuation and a "Please " prefix, applied any number of
// times — so a paraphrase maps to the original it was drawn from.
func canonical(q string) string {
	s := strings.ToLower(q)
	for {
		t, ok := strings.CutPrefix(s, "please ")
		if !ok {
			break
		}
		s = t
	}
	return strings.TrimRight(s, "?.!")
}

// sessionNames renders the stream's session IDs once, so the ask loop
// never formats a string.
func sessionNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("s%03d", i)
	}
	return out
}
