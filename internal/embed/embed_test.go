package embed

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestEmbedDeterministicAndNormalized(t *testing.T) {
	a := Embed("What is the miss rate for PC 0x4037ba?")
	b := Embed("What is the miss rate for PC 0x4037ba?")
	if a != b {
		t.Error("embedding not deterministic")
	}
	var ss float64
	for _, x := range a {
		ss += float64(x) * float64(x)
	}
	if math.Abs(ss-1) > 1e-5 {
		t.Errorf("embedding not normalized: |v|^2 = %v", ss)
	}
}

func TestEmbedCaseInsensitive(t *testing.T) {
	if Embed("PARROT policy") != Embed("parrot POLICY") {
		t.Error("embedding should be case-insensitive")
	}
}

func TestCosineSelfSimilarity(t *testing.T) {
	v := Embed("lbm workload under LRU")
	if got := Cosine(v, v); math.Abs(got-1) > 1e-5 {
		t.Errorf("self-cosine = %v", got)
	}
}

func TestRelatedTextMoreSimilar(t *testing.T) {
	q := Embed("miss rate for the mcf workload with PARROT")
	related := Embed("mcf workload PARROT replacement policy miss statistics")
	unrelated := Embed("lattice Boltzmann fluid dynamics boundary rows")
	if Cosine(q, related) <= Cosine(q, unrelated) {
		t.Error("related text should score higher than unrelated")
	}
}

// The failure mode the paper's Figure 9 analysis documents: two trace
// rows differing only in hex digits embed nearly identically, so cosine
// similarity cannot discriminate them.
func TestHexRecordsNearIndistinguishable(t *testing.T) {
	a := Embed("program_counter=0x409538 memory_address=0x2bfd401b693 evict=Cache Miss")
	b := Embed("program_counter=0x4090c3 memory_address=0x2bfd401caf2 evict=Cache Miss")
	if sim := Cosine(a, b); sim < 0.7 {
		t.Errorf("near-duplicate records similarity = %.3f, expected high (embedding blindness)", sim)
	}
}

func TestIndexTopK(t *testing.T) {
	ix := NewIndex()
	ix.Add("astar", "astar path finding grid search workload")
	ix.Add("lbm", "lbm lattice boltzmann fluid workload")
	ix.Add("mcf", "mcf network simplex vehicle scheduling workload")
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}
	top := ix.TopK("fluid dynamics lattice boltzmann", 2)
	if len(top) != 2 {
		t.Fatalf("TopK returned %d", len(top))
	}
	if top[0].ID != "lbm" {
		t.Errorf("best match = %s, want lbm", top[0].ID)
	}
	if top[0].Score < top[1].Score {
		t.Error("TopK not sorted by score")
	}
	best, ok := ix.Best("network simplex scheduling")
	if !ok || best.ID != "mcf" {
		t.Errorf("Best = %+v", best)
	}
}

func TestIndexReplace(t *testing.T) {
	ix := NewIndex()
	ix.Add("k", "first text about astar")
	ix.Add("k", "now about lattice boltzmann fluid")
	if ix.Len() != 1 {
		t.Fatalf("replace grew index: %d", ix.Len())
	}
	txt, ok := ix.Text("k")
	if !ok || txt != "now about lattice boltzmann fluid" {
		t.Errorf("Text = %q, %v", txt, ok)
	}
	best, _ := ix.Best("fluid boltzmann")
	if best.ID != "k" || best.Score < 0.3 {
		t.Errorf("replaced doc should match new text: %+v", best)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := NewIndex()
	if got := ix.TopK("anything", 5); len(got) != 0 {
		t.Error("empty index TopK should be empty")
	}
	if _, ok := ix.Best("anything"); ok {
		t.Error("empty index Best should fail")
	}
	if _, ok := ix.Text("missing"); ok {
		t.Error("missing Text should fail")
	}
}

func TestTopKClamp(t *testing.T) {
	ix := NewIndex()
	ix.Add("a", "alpha")
	if got := ix.TopK("alpha", 10); len(got) != 1 {
		t.Errorf("TopK should clamp to index size, got %d", len(got))
	}
}

func TestIndexRemove(t *testing.T) {
	ix := NewIndex()
	ix.Add("astar", "astar path finding grid search workload")
	ix.Add("lbm", "lbm lattice boltzmann fluid workload")
	ix.Add("mcf", "mcf network simplex vehicle scheduling workload")
	if !ix.Remove("lbm") {
		t.Fatal("Remove of a present id reported absent")
	}
	if ix.Remove("lbm") {
		t.Fatal("second Remove of the same id reported present")
	}
	if ix.Len() != 2 {
		t.Fatalf("Len after remove = %d, want 2", ix.Len())
	}
	if _, ok := ix.Text("lbm"); ok {
		t.Error("removed id still has text")
	}
	// The removed document must no longer match; the survivors must.
	if best, ok := ix.Best("fluid dynamics lattice boltzmann"); ok && best.ID == "lbm" {
		t.Errorf("removed document still retrieved: %+v", best)
	}
	if best, ok := ix.Best("network simplex scheduling"); !ok || best.ID != "mcf" {
		t.Errorf("survivor not retrieved after unrelated remove: %+v", best)
	}
	// Removing down to empty, then re-adding, works.
	ix.Remove("astar")
	ix.Remove("mcf")
	if ix.Len() != 0 {
		t.Fatalf("Len after removing all = %d", ix.Len())
	}
	ix.Add("astar", "astar path finding grid search workload")
	if best, ok := ix.Best("astar grid search"); !ok || best.ID != "astar" {
		t.Errorf("re-added document not retrieved: %+v", best)
	}
}

func TestIndexAddVecAndBestVec(t *testing.T) {
	ix := NewIndex()
	ix.AddVec("a", Embed("miss rate in mcf under lru"))
	ix.AddVec("b", Embed("lattice boltzmann fluid dynamics"))
	q := Embed("what is the miss rate in mcf under lru")
	m, ok := ix.BestVec(q)
	if !ok || m.ID != "a" {
		t.Fatalf("BestVec = %+v, %v; want id a", m, ok)
	}
	if m.Score < 0.7 {
		t.Errorf("paraphrase score = %.3f, expected high", m.Score)
	}
	// AddVec on an existing id replaces in place — no slot leak.
	ix.AddVec("a", Embed("completely different text now"))
	if ix.Len() != 2 {
		t.Fatalf("AddVec replace grew index: %d", ix.Len())
	}
	if _, ok := ix.BestVec(q); !ok {
		t.Fatal("BestVec failed on a non-empty index")
	}
	if _, ok := NewIndex().BestVec(q); ok {
		t.Error("empty index BestVec should fail")
	}
}

// Property (the cache-churn invariant): under any interleaving of adds
// and removes the index size equals the live-id count — a slot is never
// leaked by replacement and never survives removal.
func TestIndexChurnNeverLeaksSlots(t *testing.T) {
	ix := NewIndex()
	live := map[string]bool{}
	f := func(ops []uint8) bool {
		for _, op := range ops {
			id := fmt.Sprintf("id%02d", op%23)
			if op%3 == 0 {
				if ix.Remove(id) != live[id] {
					return false
				}
				delete(live, id)
			} else {
				ix.AddVec(id, Embed(id))
				live[id] = true
			}
			if ix.Len() != len(live) {
				return false
			}
		}
		// Every live id must be retrievable by its own embedding.
		for id := range live {
			m, ok := ix.BestVec(Embed(id))
			if !ok || !live[m.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: cosine similarity of embeddings is bounded and symmetric.
func TestCosineBoundedProperty(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := Embed(a), Embed(b)
		s1, s2 := Cosine(va, vb), Cosine(vb, va)
		return math.Abs(s1-s2) < 1e-9 && s1 >= -1.0001 && s1 <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: TopK ordering is deterministic across repeated queries.
func TestTopKDeterministicProperty(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 50; i++ {
		ix.Add(fmt.Sprintf("doc%02d", i), fmt.Sprintf("document number %d about caches", i))
	}
	f := func(q string) bool {
		a := ix.TopK(q, 5)
		b := ix.TopK(q, 5)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBestVecMatchesCosineScan checks the four-at-a-time scan against
// a plain Cosine loop: every score bit-identical, and the same best
// match with ties broken by id, for index sizes around the block size.
func TestBestVecMatchesCosineScan(t *testing.T) {
	for n := 1; n <= 11; n++ {
		ix := NewIndex()
		for i := 0; i < n; i++ {
			// Two ids share each text, so exact ties occur.
			ix.AddVec(fmt.Sprintf("id%02d", i), Embed(fmt.Sprintf("miss rate of PC 0x40%x in mcf", i/2)))
		}
		q := Embed("what is the miss rate of PC 0x403 in mcf")
		var scores [4]float64
		for i := 0; i < n; i += len(scores) {
			got := cosines(&q, ix.vecs[i:], &scores)
			if want := min(len(scores), n-i); got != want {
				t.Fatalf("n=%d at %d: scored %d vectors, want %d", n, i, got, want)
			}
			for j := 0; j < got; j++ {
				if want := Cosine(q, ix.vecs[i+j]); math.Float64bits(scores[j]) != math.Float64bits(want) {
					t.Fatalf("n=%d vector %d: score %v, Cosine %v", n, i+j, scores[j], want)
				}
			}
		}
		want := Match{Score: math.Inf(-1)}
		for i, id := range ix.ids {
			if s := Cosine(q, ix.vecs[i]); s > want.Score || (s == want.Score && id < want.ID) {
				want = Match{ID: id, Score: s}
			}
		}
		if got, _ := ix.BestVec(q); got != want {
			t.Fatalf("n=%d: BestVec = %+v, plain scan %+v", n, got, want)
		}
	}
}
