package policy_test

import (
	"fmt"
	"testing"

	"cachemind/internal/policy"
	"cachemind/internal/sim"
)

// fakeCache drives a CachePolicy the way the engine's answer cache
// does: a capacity-bounded key set that consults Victim only when full.
type fakeCache struct {
	t        *testing.T
	pol      policy.CachePolicy
	cap      int
	resident map[string]bool
	bypasses int
}

func newFakeCache(t *testing.T, name string, capacity int) *fakeCache {
	t.Helper()
	pol, err := policy.ForCache(name, capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &fakeCache{t: t, pol: pol, cap: capacity, resident: map[string]bool{}}
}

// access performs one lookup-or-insert and reports whether it hit.
func (c *fakeCache) access(key string) bool {
	if c.resident[key] {
		c.pol.OnHit(key)
		return true
	}
	if len(c.resident) >= c.cap {
		victim, bypass := c.pol.Victim(key)
		if bypass {
			c.bypasses++
			return false
		}
		if !c.resident[victim] {
			c.t.Fatalf("Victim(%q) returned non-resident key %q", key, victim)
		}
		delete(c.resident, victim)
	}
	c.resident[key] = true
	c.pol.OnInsert(key, false)
	return false
}

// TestForCacheNames: the serving registry excludes the offline-only
// policies, includes the rrip alias, and every listed name constructs.
func TestForCacheNames(t *testing.T) {
	names := policy.CacheNames()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
		if _, err := policy.ForCache(n, 8, 42); err != nil {
			t.Errorf("ForCache(%q) failed: %v", n, err)
		}
	}
	for _, want := range []string{"lru", "srrip", "hawkeye", "mockingjay", "mlp", "ship"} {
		if !have[want] {
			t.Errorf("CacheNames() missing %q: %v", want, names)
		}
	}
	// Aliases are accepted but not listed (a sweep over CacheNames must
	// not run the same policy twice under two names).
	if have["rrip"] {
		t.Errorf("alias %q listed in CacheNames(): %v", "rrip", names)
	}
	if pol, err := policy.ForCache("rrip", 8, 42); err != nil || pol.Name() != "rrip" {
		t.Errorf("ForCache(\"rrip\") = (%v, %v), want the srrip alias accepted", pol, err)
	}
	for _, offline := range []string{"belady", "parrot"} {
		if have[offline] {
			t.Errorf("offline policy %q leaked into CacheNames()", offline)
		}
		if _, err := policy.ForCache(offline, 8, 42); err == nil {
			t.Errorf("ForCache(%q) accepted an offline-only policy", offline)
		}
	}
	if _, err := policy.ForCache("optimal-prime", 8, 42); err == nil {
		t.Error("ForCache accepted an unknown policy name")
	}
}

// TestForCacheLRUMatchesRecencyList: the adapted simulator LRU makes
// exactly the decisions of a textbook recency list — the property the
// engine's byte-identical-at-default guarantee rests on.
func TestForCacheLRUMatchesRecencyList(t *testing.T) {
	const capacity = 3
	c := newFakeCache(t, "lru", capacity)

	// Reference recency list (front = MRU).
	var order []string
	touch := func(key string) {
		for i, k := range order {
			if k == key {
				order = append(order[:i], order[i+1:]...)
				break
			}
		}
		order = append([]string{key}, order...)
	}

	stream := []string{"a", "b", "c", "a", "d", "b", "e", "e", "a", "f", "c", "d", "a"}
	for i, key := range stream {
		wantHit := false
		for _, k := range order {
			if k == key {
				wantHit = true
			}
		}
		if !wantHit && len(order) == capacity {
			order = order[:capacity-1] // drop LRU
		}
		touch(key)
		if got := c.access(key); got != wantHit {
			t.Fatalf("access %d (%q): hit=%v, reference LRU says %v", i, key, got, wantHit)
		}
	}
	if c.bypasses != 0 {
		t.Fatalf("LRU bypassed %d inserts", c.bypasses)
	}
}

// TestForCacheAllPoliciesBounded: every registered policy keeps the
// resident set within capacity over a mixed hit/miss stream, never
// evicts a non-resident key, and stays deterministic for a fixed seed.
func TestForCacheAllPoliciesBounded(t *testing.T) {
	for _, name := range policy.CacheNames() {
		t.Run(name, func(t *testing.T) {
			run := func() (int, int) {
				c := newFakeCache(t, name, 4)
				hits := 0
				for i := 0; i < 400; i++ {
					key := fmt.Sprintf("q-%d", (i*7)%13)
					if c.access(key) {
						hits++
					}
					if len(c.resident) > 4 {
						t.Fatalf("resident set grew to %d at capacity 4", len(c.resident))
					}
				}
				return hits, c.bypasses
			}
			h1, b1 := run()
			h2, b2 := run()
			if h1 != h2 || b1 != b2 {
				t.Fatalf("same-seed replays diverge: %d/%d hits, %d/%d bypasses", h1, h2, b1, b2)
			}
		})
	}
}

// TestForCacheCapacityClamp: capacities below one clamp to a single
// entry instead of building an empty geometry.
func TestForCacheCapacityClamp(t *testing.T) {
	pol, err := policy.ForCache("lru", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pol.OnInsert("a", false)
	victim, bypass := pol.Victim("b")
	if bypass || victim != "a" {
		t.Fatalf("Victim = (%q, %v), want (\"a\", false)", victim, bypass)
	}
	pol.OnInsert("b", false)
}

// TestForCacheBypassPropagates: a policy whose Victim returns
// sim.BypassWay surfaces bypass=true without forgetting any resident
// key. (Exercised through the interface with a stub to pin the adapter
// contract independent of any one policy's heuristics.)
func TestForCacheBypassContract(t *testing.T) {
	// Mockingjay is the one registered policy that can bypass; the
	// adapter must survive its decisions over a scan-heavy stream.
	c := newFakeCache(t, "mockingjay", 4)
	for i := 0; i < 2000; i++ {
		c.access(fmt.Sprintf("scan-%d", i%400))
		if len(c.resident) > 4 {
			t.Fatalf("resident set grew to %d at capacity 4", len(c.resident))
		}
	}
}

// TestHawkeyeWideGeometry: Hawkeye at a 1-set, 256-way geometry (the
// default answer-cache budget at Shards: 1) keeps its OPTgen occupancy
// arithmetic intact. The former uint8 capacity field wrapped 256 to
// zero, so every reconstructed OPT decision came out "would not have
// kept it" and a tight, fully-fitting reuse pattern trained its PCs
// cache-averse instead of friendly.
func TestHawkeyeWideGeometry(t *testing.T) {
	h := policy.NewHawkeye(sim.Config{Name: "wide", Sets: 1, Ways: 256, Latency: 1})
	lines := make([]sim.Line, 256)
	// One stable PC re-touching a tiny working set well inside both the
	// OPTgen window and the 256-line capacity: OPT keeps every reuse.
	const pc = 0xbeef
	var clock uint64
	for round := 0; round < 64; round++ {
		for i := 0; i < 4; i++ {
			clock++
			info := sim.AccessInfo{Time: clock, PC: pc, LineAddr: uint64(64 * (i + 1))}
			if round == 0 {
				h.OnFill(info, i, lines)
			} else {
				h.OnHit(info, i, lines)
			}
		}
	}
	friendly, total := h.PredictorSnapshot()
	if total == 0 {
		t.Fatal("OPTgen never trained the predictor on the sampled set")
	}
	if friendly == 0 {
		t.Fatalf("a fully-fitting reuse pattern trained %d/%d PCs friendly; OPTgen capacity arithmetic broken", friendly, total)
	}
}
