package engine

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"cachemind/internal/embed"
	"cachemind/internal/policy"
)

// newLRUCache is the test shorthand for a cache under the default
// native LRU policy.
func newLRUCache(capacity int) *answerCache {
	return newAnswerCache(capacity, newLRUList(), false)
}

func TestAnswerCacheLRU(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", Answer{Text: "A"}, nil)
	c.put("b", Answer{Text: "B"}, nil)

	if ans, ok := c.touch([]byte("a")); !ok || ans.Text != "A" {
		t.Fatalf("touch a = %+v, %v", ans, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.put("c", Answer{Text: "C"}, nil)
	if _, ok := c.touch([]byte("b")); ok {
		t.Fatal("b survived eviction at capacity 2")
	}
	if _, ok := c.touch([]byte("a")); !ok {
		t.Fatal("a (recently used) was evicted")
	}
	if _, ok := c.touch([]byte("c")); !ok {
		t.Fatal("c missing after insert")
	}
	if _, _, _, _, entries := c.counters(); entries != 2 {
		t.Fatalf("entries = %d, want 2", entries)
	}
}

func TestAnswerCacheUpdateExisting(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", Answer{Text: "old"}, nil)
	c.put("a", Answer{Text: "new"}, nil)
	if ans, ok := c.touch([]byte("a")); !ok || ans.Text != "new" {
		t.Fatalf("touch a = %+v, %v; want updated entry", ans, ok)
	}
	if _, _, _, _, entries := c.counters(); entries != 1 {
		t.Fatalf("entries = %d, want 1 (no duplicate on update)", entries)
	}
}

func TestAnswerCacheMinimumCapacity(t *testing.T) {
	c := newLRUCache(0) // clamps to 1
	c.put("a", Answer{Text: "A"}, nil)
	c.put("b", Answer{Text: "B"}, nil)
	if _, _, _, _, entries := c.counters(); entries != 1 {
		t.Fatalf("entries = %d, want 1", entries)
	}
	if _, ok := c.touch([]byte("b")); !ok {
		t.Fatal("latest entry missing at capacity 1")
	}
}

// TestAnswerCachePeekLeavesRecencyAlone: peek must not perturb the
// policy's eviction order — the property the single-flight retry loop
// relies on.
func TestAnswerCachePeekLeavesRecencyAlone(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", Answer{Text: "A"}, nil)
	c.put("b", Answer{Text: "B"}, nil)
	if ans, ok := c.peek("a"); !ok || ans.Text != "A" {
		t.Fatalf("peek a = %+v, %v", ans, ok)
	}
	// "a" is still least recently used (peek did not bump it), so "c"
	// evicts it.
	c.put("c", Answer{Text: "C"}, nil)
	if _, ok := c.peek("a"); ok {
		t.Fatal("peek bumped recency: a survived eviction")
	}
	if _, ok := c.peek("b"); !ok {
		t.Fatal("b evicted although a was older")
	}
}

// TestAnswerCacheBypassingPolicy: a policy that declines insertion
// leaves the resident set untouched and counts a bypass.
func TestAnswerCacheBypassingPolicy(t *testing.T) {
	c := newAnswerCache(1, &bypassAllWrap{newLRUList()}, false)
	c.put("a", Answer{Text: "A"}, nil)
	c.put("b", Answer{Text: "B"}, nil) // full: policy bypasses
	if _, ok := c.touch([]byte("a")); !ok {
		t.Fatal("resident entry lost on a bypassed insert")
	}
	if _, ok := c.touch([]byte("b")); ok {
		t.Fatal("bypassed entry was inserted anyway")
	}
	_, _, _, bypasses, entries := c.counters()
	if bypasses != 1 || entries != 1 {
		t.Fatalf("bypasses/entries = %d/%d, want 1/1", bypasses, entries)
	}
}

// bypassAllWrap delegates bookkeeping to a real policy but refuses
// every eviction.
type bypassAllWrap struct{ policy.CachePolicy }

func (b *bypassAllWrap) Name() string                 { return "bypass-all" }
func (b *bypassAllWrap) Victim(string) (string, bool) { return "", true }

// TestAnswerCacheIndexLockstepAllPolicies pins the semantic tier's
// soundness invariant for every registered eviction policy: the
// question-vector index always holds exactly one vector per resident
// entry — an eviction, replacement, or bypass leaves both structures
// in agreement under the same critical section. A dangling vector
// would let the semantic tier serve an answer that no longer exists.
func TestAnswerCacheIndexLockstepAllPolicies(t *testing.T) {
	for _, name := range CachePolicies() {
		t.Run(name, func(t *testing.T) {
			pol, err := newEvictionPolicy(name, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			c := newAnswerCache(4, pol, true)
			check := func(step string) {
				t.Helper()
				c.mu.Lock()
				entries, indexed := len(c.entries), c.idx.Len()
				c.mu.Unlock()
				if entries != indexed {
					t.Fatalf("%s under %s: %d entries but %d indexed vectors", step, name, entries, indexed)
				}
			}
			// Churn far past capacity, with interleaved touches and
			// overwrites, so Victim (and any bypass choice) runs often.
			for i := 0; i < 48; i++ {
				key := fmt.Sprintf("q%d", i)
				v := embed.Embed(key)
				c.put(key, Answer{Text: key}, &v)
				check("insert " + key)
				if i%3 == 0 {
					c.touch([]byte(fmt.Sprintf("q%d", i/2)))
				}
				if i%7 == 0 {
					c.put(key, Answer{Text: key + "'"}, &v) // overwrite: no second vector
					check("overwrite " + key)
				}
			}
			_, _, _, bypasses, entries := c.counters()
			if entries > 4 {
				t.Fatalf("%s: %d entries over capacity 4", name, entries)
			}
			t.Logf("%s: %d resident, %d bypasses", name, entries, bypasses)
		})
	}
}

// evictionDecisionDigests pins every policy's eviction decisions on
// the replay in TestEvictionDecisionsPinned: an FNV-64 over each
// operation's outcome (victim evicted, insert landed or bypassed) and
// the final resident set. A change to the eviction seam must leave
// every value untouched.
var evictionDecisionDigests = map[string]uint64{
	"brrip":      0x4b4555b9b893f526,
	"dip":        0x2577e69d297281db,
	"drrip":      0x85d5b8bd26a6a449,
	"hawkeye":    0xc1e626878fb9f8d6,
	"lru":        0xddeb410c5b3ef0d2,
	"mlp":        0x00e73ad5e433652c,
	"mockingjay": 0xa83bf14f6551c320,
	"plru":       0x1541c9741b6da541,
	"random":     0xffa3ef14fc2e77df,
	"ship":       0xa8958aca530ca60f,
	"srrip":      0x85d5b8bd26a6a449,
}

// TestEvictionDecisionsPinned replays a fixed key sequence of demand
// hits, demand inserts, overwrites and prefetch fills through one
// shard under every registered policy, and compares the decisions the
// shard made against evictionDecisionDigests. Decisions are read off
// the resident set, so the replay pins what the cache did, not how the
// policy was called.
func TestEvictionDecisionsPinned(t *testing.T) {
	const capacity, ops = 8, 600
	shapes := []string{"What", "Which", "How", "List", "Does"}
	for _, name := range CachePolicies() {
		t.Run(name, func(t *testing.T) {
			pol, err := newEvictionPolicy(name, capacity, 1)
			if err != nil {
				t.Fatal(err)
			}
			c := newAnswerCache(capacity, pol, false)
			resident := func() map[string]bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				out := make(map[string]bool, len(c.entries))
				for k := range c.entries {
					out[k] = true
				}
				return out
			}
			h := fnv.New64a()
			x := uint32(2463534242) // xorshift32: a fixed, self-contained sequence
			next := func() uint32 {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				return x
			}
			for i := 0; i < ops; i++ {
				n := next()
				key := fmt.Sprintf("ranger\x00gpt-4o\x00%s q%d", shapes[n%5], (n>>3)%29)
				before := resident()
				op := "put"
				switch kind := (n >> 9) % 10; {
				case kind < 6 && before[key]:
					op = "hit"
					c.touch([]byte(key))
				case kind < 8:
					c.put(key, Answer{Text: key}, nil)
				default:
					op = "prefetch"
					c.putPrefetch(key, Answer{Text: key}, nil)
				}
				after := resident()
				victim := "-"
				for k := range before {
					if !after[k] {
						victim = k
					}
				}
				fmt.Fprintf(h, "%s %q victim=%q landed=%v\n", op, key, victim, after[key])
			}
			final := make([]string, 0, capacity)
			for k := range resident() {
				final = append(final, k)
			}
			sort.Strings(final)
			fmt.Fprintf(h, "resident %q\n", final)
			got := h.Sum64()
			if want, ok := evictionDecisionDigests[name]; !ok || got != want {
				t.Errorf("%s: eviction decision digest %#016x, want %#016x", name, got, want)
			}
		})
	}
}
