// Package embed provides deterministic text embeddings and a small
// vector store. The paper's Sieve retriever uses a sentence embedder to
// match workload/policy mentions against database keys, and its
// LlamaIndex baseline retrieves trace chunks by embedding cosine
// similarity; both are served by this package's character-n-gram hashing
// embedder — an offline stand-in with the property the paper's failure
// analysis hinges on: records differing only in a few hex digits embed
// almost identically, so cosine retrieval cannot tell them apart.
package embed

import (
	"math"
	"sort"
	"strings"
)

// Dim is the embedding dimensionality.
const Dim = 128

// Vector is one L2-normalized embedding.
type Vector [Dim]float32

// fnv1a64 hashes a byte window.
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Embed maps text to a vector by hashing character trigrams (plus whole
// words) into Dim buckets with signed counts, then L2-normalizing.
// Embedding is case-insensitive and deterministic.
func Embed(text string) Vector {
	var v Vector
	t := strings.ToLower(text)
	add := func(tok string, weight float32) {
		h := fnv1a64(tok)
		idx := int(h % Dim)
		sign := float32(1)
		if h>>63 == 1 {
			sign = -1
		}
		v[idx] += sign * weight
	}
	// Character trigrams capture sub-word shape.
	for i := 0; i+3 <= len(t); i++ {
		add(t[i:i+3], 1)
	}
	// Whole words get extra weight so names dominate.
	for _, w := range strings.FieldsFunc(t, func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_')
	}) {
		if w != "" {
			add("w:"+w, 2)
		}
	}
	return normalize(v)
}

func normalize(v Vector) Vector {
	var ss float64
	for _, x := range v {
		ss += float64(x) * float64(x)
	}
	if ss == 0 {
		return v
	}
	inv := float32(1 / math.Sqrt(ss))
	for i := range v {
		v[i] *= inv
	}
	return v
}

// Cosine returns the cosine similarity of two vectors. Both inputs are
// expected normalized (as Embed returns), so this is a dot product,
// clamped to [-1, 1]: float32 rounding can push the dot of a vector
// with itself a hair past 1, and callers treat the score as a true
// cosine (e.g. comparing against a 1.0 threshold).
func Cosine(a, b Vector) float64 { return cosine(&a, &b) }

// cosine is Cosine over pointers: the index scans call it once per
// resident vector, and passing two 512-byte arrays by value would copy
// both on every call.
func cosine(a, b *Vector) float64 {
	var dot float64
	for i := range a {
		dot += float64(a[i]) * float64(b[i])
	}
	return math.Max(-1, math.Min(1, dot))
}

// Match is one retrieval hit from an Index.
type Match struct {
	ID    string
	Score float64
}

// Index is an exact top-k cosine index over embedded documents. It
// supports removal (swap-delete, O(1)) so a bounded cache can keep a
// vector per resident entry and delete it on eviction; pos maps ids to
// their slot, so Add on an existing id replaces its vector in place
// instead of leaking the old slot.
type Index struct {
	ids  []string
	vecs []Vector
	pos  map[string]int
	text map[string]string
}

// NewIndex creates an empty index.
func NewIndex() *Index {
	return &Index{pos: map[string]int{}, text: map[string]string{}}
}

// Add embeds and stores a document under id. Adding an existing id
// replaces its text and vector but keeps one entry.
func (ix *Index) Add(id, text string) {
	ix.AddVec(id, Embed(text))
	ix.text[id] = text
}

// AddVec stores a precomputed vector under id (replacing any existing
// vector for that id) without retaining document text — the form the
// engine's semantic answer-cache tier uses, where the vector is
// computed once per miss and the id is a cache key, not a document.
func (ix *Index) AddVec(id string, v Vector) {
	if i, ok := ix.pos[id]; ok {
		ix.vecs[i] = v
		return
	}
	ix.pos[id] = len(ix.ids)
	ix.ids = append(ix.ids, id)
	ix.vecs = append(ix.vecs, v)
}

// Remove deletes id's entry (vector, text, and slot) and reports
// whether it was present. The freed slot is reused by the next Add, so
// an add/remove churn never grows the index past its live-entry count.
func (ix *Index) Remove(id string) bool {
	i, ok := ix.pos[id]
	if !ok {
		return false
	}
	last := len(ix.ids) - 1
	if i != last {
		ix.ids[i] = ix.ids[last]
		ix.vecs[i] = ix.vecs[last]
		ix.pos[ix.ids[i]] = i
	}
	ix.ids = ix.ids[:last]
	ix.vecs = ix.vecs[:last]
	delete(ix.pos, id)
	delete(ix.text, id)
	return true
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return len(ix.ids) }

// Text returns the stored document for id.
func (ix *Index) Text(id string) (string, bool) {
	t, ok := ix.text[id]
	return t, ok
}

// TopK returns the k most similar documents to the query, by descending
// cosine score with ties broken by id for determinism.
func (ix *Index) TopK(query string, k int) []Match {
	q := Embed(query)
	matches := make([]Match, len(ix.ids))
	for i, id := range ix.ids {
		matches[i] = Match{ID: id, Score: cosine(&q, &ix.vecs[i])}
	}
	sort.Slice(matches, func(i, j int) bool {
		if matches[i].Score != matches[j].Score {
			return matches[i].Score > matches[j].Score
		}
		return matches[i].ID < matches[j].ID
	})
	if k > len(matches) {
		k = len(matches)
	}
	return matches[:k]
}

// Best returns the single best match, or ok=false for an empty index.
func (ix *Index) Best(query string) (Match, bool) {
	top := ix.TopK(query, 1)
	if len(top) == 0 {
		return Match{}, false
	}
	return top[0], true
}

// BestVec returns the single best match for a precomputed query vector
// without sorting the whole candidate set — the nearest-neighbor probe
// on the engine's semantic-tier miss path. Ties break by id, so the
// result is independent of insertion (and swap-delete) order.
func (ix *Index) BestVec(q Vector) (Match, bool) {
	if len(ix.ids) == 0 {
		return Match{}, false
	}
	best := Match{Score: math.Inf(-1)}
	var scores [4]float64
	for i := 0; i < len(ix.vecs); i += len(scores) {
		n := cosines(&q, ix.vecs[i:], &scores)
		for j, score := range scores[:n] {
			if id := ix.ids[i+j]; score > best.Score || (score == best.Score && id < best.ID) {
				best = Match{ID: id, Score: score}
			}
		}
	}
	return best, true
}

// cosines scores q against the first four vectors of vs (fewer at the
// end of the index) into scores and returns how many it scored. Each
// dot product keeps Cosine's summation order, so every score equals
// Cosine's bit for bit; running four independent sums at once hides
// the floating-point add latency that bounds a single one.
func cosines(q *Vector, vs []Vector, scores *[4]float64) int {
	if len(vs) < len(scores) {
		for j := range vs {
			scores[j] = cosine(q, &vs[j])
		}
		return len(vs)
	}
	a, b, c, d := &vs[0], &vs[1], &vs[2], &vs[3]
	var da, db, dc, dd float64
	for i := range q {
		x := float64(q[i])
		da += x * float64(a[i])
		db += x * float64(b[i])
		dc += x * float64(c[i])
		dd += x * float64(d[i])
	}
	for j, dot := range [4]float64{da, db, dc, dd} {
		scores[j] = math.Max(-1, math.Min(1, dot))
	}
	return len(scores)
}
