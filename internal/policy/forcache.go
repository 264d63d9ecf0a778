package policy

import (
	"fmt"
	"sort"
	"strings"

	"cachemind/internal/sim"
)

// CachePolicy is the serving-side view of a replacement policy: a
// key-addressed cache (the engine's answer cache) instead of a
// set-associative address-addressed one. It is the one eviction seam
// internal/engine's answer cache drives: ForCache adapts every
// registered online policy to it, and the engine's native LRU
// implements it directly. Every hook is mandatory, so the compiler
// checks that each implementation carries the whole set.
//
// Contract (callers serialize all calls — one answer-cache shard owns
// one CachePolicy under its mutex):
//
//   - OnHit(key) observes a lookup hit on a resident key (or an
//     overwrite of an existing entry) and refreshes its recency state.
//     A non-resident key is a no-op.
//   - OnHitBytes(key) is OnHit for a key still in the ask's pooled
//     scratch bytes. It must not allocate: it is the cached exact-hit
//     path, which is allocation-free under every policy.
//   - Victim(incoming) is called only when the cache is full and
//     incoming is absent. The policy returns the resident key to
//     evict, or bypass=true to request that incoming not be cached at
//     all (e.g. Mockingjay predicting reuse beyond every resident
//     line's horizon). When bypass is false the caller must evict the
//     victim and then call OnInsert(incoming, prefetch); the policy
//     stops tracking the victim the moment Victim returns.
//   - OnInsert(key, prefetch) observes the insertion of a new key, into
//     the way freed by the immediately preceding Victim call or into a
//     free way when the cache is not yet full.
//
// prefetch marks a speculative prefetch fill rather than a demand
// fill. The native LRU inserts prefetch fills at its recency midpoint;
// adapted policies place them like demand fills, since no registered
// simulator policy reads sim.AccessInfo.Prefetch.
type CachePolicy interface {
	Name() string
	OnHit(key string)
	OnHitBytes(key []byte)
	OnInsert(key string, prefetch bool)
	Victim(incoming string) (victim string, bypass bool)
}

// cacheAliases maps serving-side policy spellings onto registered
// simulator policies ("rrip" is the paper's family name; SRRIP is its
// canonical static member).
var cacheAliases = map[string]string{"rrip": "srrip"}

// cacheOffline lists registered policies that cannot drive a live
// cache: they need offline inputs over the exact future access stream
// (Belady's next-use oracle, PARROT's training trace), which a serving
// system by definition does not have.
var cacheOffline = map[string]bool{"belady": true, "parrot": true}

// CacheNames returns the canonical policy names ForCache accepts,
// sorted: every registered online-constructible policy. Aliases
// ("rrip") are accepted by ForCache but not listed, so iterating the
// registry (policy sweeps, per-policy test matrices) never runs the
// same policy twice under two names.
func CacheNames() []string {
	out := make([]string, 0, len(constructors))
	for n := range constructors {
		if !cacheOffline[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// ForCache builds the named replacement policy adapted to a
// key-addressed cache of the given entry capacity. The underlying
// simulator policy sees the cache as a single fully-associative set
// (Sets: 1, Ways: capacity), so "evict only when full" semantics match
// a capacity-bounded map exactly, and the adapter's LRU is
// decision-for-decision identical to a recency list. Seed drives any
// stochastic policy choice (the "random" policy); identical
// (name, capacity, seed) triples replay identical eviction decisions.
func ForCache(name string, capacity int, seed int64) (CachePolicy, error) {
	resolved := name
	if a, ok := cacheAliases[name]; ok {
		resolved = a
	}
	if cacheOffline[resolved] {
		return nil, fmt.Errorf("policy: %q needs offline inputs (a future-access oracle or training trace) and cannot drive a live cache (have %v)", name, CacheNames())
	}
	if _, ok := constructors[resolved]; !ok {
		return nil, fmt.Errorf("policy: unknown cache policy %q (have %v)", name, CacheNames())
	}
	if capacity < 1 {
		capacity = 1
	}
	inner, err := New(resolved, sim.Config{Name: "answer-cache", Sets: 1, Ways: capacity, Latency: 1}, Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	return newCacheAdapter(name, inner, capacity), nil
}

// newCacheAdapter wraps inner, a simulator policy built for a 1-set,
// capacity-way geometry, as a CachePolicy named name.
func newCacheAdapter(name string, inner sim.ReplacementPolicy, capacity int) *cacheAdapter {
	a := &cacheAdapter{
		name:   name,
		inner:  inner,
		lines:  make([]sim.Line, capacity),
		keys:   make([]string, capacity),
		way:    make(map[string]int, capacity),
		free:   make([]int, 0, capacity),
		shapes: make(map[string]uint64),
	}
	// Free ways pop in ascending order, matching the simulator's
	// fill-first-invalid-way scan.
	for w := capacity - 1; w >= 0; w-- {
		a.free = append(a.free, w)
	}
	return a
}

// cacheAdapter translates the key-addressed CachePolicy calls into the
// sim.ReplacementPolicy protocol: each resident key occupies one way of
// a single fully-associative set, the access clock ticks once per
// OnHit/insert, and keys are hashed into the address/PC features the
// simulator policies consume.
type cacheAdapter struct {
	name  string
	inner sim.ReplacementPolicy
	lines []sim.Line
	keys  []string       // way -> resident key ("" when invalid)
	way   map[string]int // resident key -> way
	free  []int          // invalid ways, popped from the tail
	clock uint64

	// pendingWay carries the way chosen by Victim to the OnInsert call
	// that fills it (the simulator performs both inside one access).
	pendingWay int
	pendingKey string
	hasPending bool

	// shapes interns the PC feature per question shape — the
	// (retriever, model, leading-word) substring every key of one intent
	// family shares. Question shapes are few (one per intent phrasing)
	// while accesses are many, so memoizing here turns the per-access
	// full-prefix hash into a map probe on a short substring. Stored
	// shape strings are cloned so the memo never pins a full cache key's
	// backing array; shapeMemoCap bounds it against adversarial key
	// streams (past the cap, features are computed but not stored).
	shapes map[string]uint64
}

// shapeMemoCap bounds the shape-intern memo. Real workloads carry a
// handful of shapes; the cap only matters for a key stream minting
// unbounded distinct leading words.
const shapeMemoCap = 4096

var _ CachePolicy = (*cacheAdapter)(nil)

func (a *cacheAdapter) Name() string { return a.name }

// fnv64a hashes s into h (FNV-1a), so multi-part hashes can chain.
func fnv64a(h uint64, s string) uint64 {
	const prime64 = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

const fnvOffset64 = 14695981039346656037

// info builds the AccessInfo a policy sees for key at the current
// clock. LineAddr
// identifies the exact entry (full-key hash). PC — the feature the
// learned policies (SHiP, Hawkeye, Mockingjay, MLP) index their
// predictors by — is the cache key's (retriever, model) prefix plus the
// question's leading word: a question-shape proxy for the program
// counter, so predictors generalize across questions of the same
// intent instead of degenerating to per-key state.
func (a *cacheAdapter) info(key string) sim.AccessInfo {
	return sim.AccessInfo{
		Time:     a.clock,
		PC:       a.pcFor(key),
		LineAddr: fnv64a(fnvOffset64, key),
	}
}

// pcFor derives key's PC feature through the shape-intern memo. The
// shape — the (retriever, model) prefix plus the question's leading
// word — is a contiguous substring of the key, and FNV-1a is a
// byte-sequential fold, so hashing the substring once equals the old
// prefix-then-head chained hash bit-for-bit; the memo changes cost,
// never a feature value (TestForCacheShapeIntern pins both).
func (a *cacheAdapter) pcFor(key string) uint64 {
	question := key
	if i := strings.LastIndexByte(key, 0); i >= 0 {
		question = key[i+1:]
	}
	head := question
	if j := strings.IndexByte(question, ' '); j > 0 {
		head = question[:j]
	}
	shape := key[:len(key)-len(question)+len(head)]
	if pc, ok := a.shapes[shape]; ok {
		return pc
	}
	pc := fnv64a(fnvOffset64, shape)
	if len(a.shapes) < shapeMemoCap {
		a.shapes[strings.Clone(shape)] = pc
	}
	return pc
}

func (a *cacheAdapter) OnHit(key string) {
	w, ok := a.way[key]
	if !ok {
		return
	}
	a.clock++
	info := a.info(key)
	a.lines[w].LastTouch = info.Time
	a.lines[w].PC = info.PC
	a.inner.OnHit(info, w, a.lines)
}

// OnHitBytes observes a hit whose key is still in the ask's pooled
// scratch bytes. The way probe is a zero-copy map lookup, and the hit
// is replayed under the resident key string the adapter already holds,
// so no key is materialized.
//
//cachemind:noalloc
func (a *cacheAdapter) OnHitBytes(key []byte) {
	if w, ok := a.way[string(key)]; ok {
		a.OnHit(a.keys[w])
	}
}

func (a *cacheAdapter) Victim(incoming string) (string, bool) {
	a.clock++
	info := a.info(incoming)
	w := a.inner.Victim(info, a.lines)
	if w == sim.BypassWay {
		a.hasPending = false
		return "", true
	}
	if w < 0 || w >= len(a.lines) {
		panic(fmt.Sprintf("policy: %s returned invalid victim way %d of %d", a.inner.Name(), w, len(a.lines)))
	}
	victim := a.keys[w]
	delete(a.way, victim)
	a.keys[w] = ""
	// The evicted line stays in lines[w] until OnInsert overwrites it,
	// exactly as the simulator's fill does — policies (SHiP's dead-block
	// training) may read the displaced state in OnFill.
	a.pendingWay, a.pendingKey, a.hasPending = w, incoming, true
	return victim, false
}

// OnInsert places prefetch and demand fills alike (see CachePolicy).
func (a *cacheAdapter) OnInsert(key string, _ bool) {
	var w int
	var info sim.AccessInfo
	if a.hasPending && a.pendingKey == key {
		w, a.hasPending = a.pendingWay, false
		info = a.info(key) // the clock already ticked in Victim
	} else {
		a.hasPending = false
		if len(a.free) == 0 {
			panic("policy: CachePolicy.OnInsert on a full cache without a preceding Victim")
		}
		w = a.free[len(a.free)-1]
		a.free = a.free[:len(a.free)-1]
		a.clock++
		info = a.info(key)
	}
	a.way[key] = w
	a.keys[w] = key
	a.lines[w] = sim.Line{
		Valid:     true,
		Addr:      info.LineAddr,
		PC:        info.PC,
		FillTime:  info.Time,
		LastTouch: info.Time,
	}
	a.inner.OnFill(info, w, a.lines)
}
