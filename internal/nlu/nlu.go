// Package nlu implements CacheMind's natural-language understanding:
// entity extraction (PCs, memory addresses, cache sets, policies,
// workloads), question-intent classification over the paper's eleven
// benchmark categories, and the semantic parser that compiles a question
// into executable queryir queries — the offline stand-in for Ranger's
// LLM code generation.
package nlu

import (
	"regexp"
	"sort"
	"strconv"
	"strings"

	"cachemind/internal/embed"
)

// Entities are the symbols extracted from one question.
type Entities struct {
	// PCs are hex literals small enough to be instruction addresses.
	PCs []uint64
	// Addrs are hex literals large enough to be data addresses.
	Addrs []uint64
	// Sets are cache-set indices mentioned as "set N".
	Sets []int
	// Numbers are decimal literals not claimed by Sets.
	Numbers []float64
	// Workloads and Policies are canonical names resolved against the
	// vocabulary, in mention order.
	Workloads []string
	Policies  []string
}

// pcAddrBoundary splits hex literals: instruction addresses in our
// synthetic binaries live below 16 MiB; data addresses far above.
const pcAddrBoundary = 0x1000000

var (
	hexRe = regexp.MustCompile(`0x[0-9a-f]+`) // run on the lower-cased question
	setRe = regexp.MustCompile(`(?i)\bsets?\s+(\d+)`)
	numRe = regexp.MustCompile(`\b\d+(\.\d+)?\b`)
)

// Vocabulary is the known workload and policy names plus their aliases.
type Vocabulary struct {
	Workloads []string
	Policies  []string
}

// policyAliases maps surface forms to canonical policy names. Matching
// is token-based and case-insensitive.
var policyAliases = map[string]string{
	"lru": "lru", "least recently used": "lru",
	"belady": "belady", "belady's": "belady", "beladys": "belady",
	"optimal": "belady", "opt": "belady", "min": "belady",
	"parrot": "parrot",
	"mlp":    "mlp", "perceptron": "mlp", "multi-layer perceptron": "mlp",
	"multilayer perceptron": "mlp",
	"mockingjay":            "mockingjay",
	"ship":                  "ship", "shct": "ship",
	"srrip": "srrip", "brrip": "brrip", "drrip": "drrip", "rrip": "srrip",
	"dip": "dip", "plru": "plru", "random": "random",
}

// Extract pulls all entities out of the question text.
func Extract(q string, vocab Vocabulary) Entities {
	var e Entities
	lower := strings.ToLower(q)

	for _, m := range hexRe.FindAllString(lower, -1) {
		v, err := strconv.ParseUint(m[2:], 16, 64)
		if err != nil {
			continue
		}
		if v < pcAddrBoundary {
			e.PCs = appendUnique(e.PCs, v)
		} else {
			e.Addrs = appendUnique(e.Addrs, v)
		}
	}

	setClaims := map[string]bool{}
	for _, m := range setRe.FindAllStringSubmatch(q, -1) {
		if n, err := strconv.Atoi(m[1]); err == nil {
			e.Sets = append(e.Sets, n)
			setClaims[m[1]] = true
		}
	}
	for _, m := range numRe.FindAllString(lower, -1) {
		if setClaims[m] || strings.Contains(m, "x") {
			continue
		}
		if n, err := strconv.ParseFloat(m, 64); err == nil {
			e.Numbers = append(e.Numbers, n)
		}
	}

	e.Workloads = resolveNames(lower, vocab.Workloads, nil)
	e.Policies = resolveNames(lower, canonicalPolicies(vocab.Policies), policyAliases)
	return e
}

// canonicalPolicies keeps only vocabulary policies so alias resolution
// cannot invent policies the store does not have.
func canonicalPolicies(known []string) []string {
	return append([]string(nil), known...)
}

// resolveNames finds canonical names mentioned in text. Direct
// token-boundary matches of the name itself always win; aliases resolve
// only when their canonical target is in the known list. Results keep
// first-mention order.
func resolveNames(lower string, known []string, aliases map[string]string) []string {
	knownSet := map[string]bool{}
	for _, k := range known {
		knownSet[k] = true
	}
	type hit struct {
		pos  int
		name string
	}
	var hits []hit
	seen := map[string]bool{}
	record := func(pos int, name string) {
		if !seen[name] && knownSet[name] {
			seen[name] = true
			hits = append(hits, hit{pos, name})
		}
	}
	for _, k := range known {
		if pos := tokenIndex(lower, strings.ToLower(k)); pos >= 0 {
			record(pos, k)
		}
	}
	for surface, canon := range aliases {
		if pos := tokenIndex(lower, surface); pos >= 0 {
			record(pos, canon)
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].pos < hits[j].pos })
	out := make([]string, len(hits))
	for i, h := range hits {
		out[i] = h.name
	}
	return out
}

// tokenIndex finds needle in hay at token boundaries, returning its
// byte offset or -1.
func tokenIndex(hay, needle string) int {
	for from := 0; ; {
		i := strings.Index(hay[from:], needle)
		if i < 0 {
			return -1
		}
		i += from
		before := i == 0 || !isWordByte(hay[i-1])
		afterIdx := i + len(needle)
		after := afterIdx >= len(hay) || !isWordByte(hay[afterIdx])
		if before && after {
			return i
		}
		from = i + 1
	}
}

func isWordByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}

func appendUnique(xs []uint64, v uint64) []uint64 {
	for _, x := range xs {
		if x == v {
			return xs
		}
	}
	return append(xs, v)
}

// SemanticWorkload resolves a fuzzy workload mention by embedding
// similarity when token matching found nothing — the Sieve stage-1
// behaviour of ranking database keys by sentence-embedding similarity.
func SemanticWorkload(q string, vocab Vocabulary, descriptions map[string]string) (string, float64) {
	ix := embed.NewIndex()
	for _, w := range vocab.Workloads {
		ix.Add(w, w+" "+descriptions[w])
	}
	best, ok := ix.Best(q)
	if !ok {
		return "", 0
	}
	return best.ID, best.Score
}
