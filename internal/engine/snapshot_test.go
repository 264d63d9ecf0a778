package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"cachemind/internal/engine"
)

// TestExportImportSessionsRoundTrip: every session an engine can hold
// restores whole, with an identical memory view — including a log
// longer than MaxSessionTurns, which record keeps until it reaches
// twice the bound.
func TestExportImportSessionsRoundTrip(t *testing.T) {
	const maxTurns = 4
	cfg := engine.Config{MaxSessionTurns: maxTurns}
	src := newEngine(t, cfg)
	for i, q := range questions[:3] {
		mustAsk(t, src, fmt.Sprintf("sess-%d", i), q)
		mustAsk(t, src, fmt.Sprintf("sess-%d", i), questions[3])
	}
	// Between the bound and twice the bound: never compacted.
	for i := 0; i < maxTurns+2; i++ {
		mustAsk(t, src, "sess-long", questions[i%len(questions)])
	}
	snaps := src.ExportSessions()
	if len(snaps) != 4 {
		t.Fatalf("exported %d sessions, want 4", len(snaps))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].ID >= snaps[i].ID {
			t.Fatal("export not sorted by session ID")
		}
	}
	if n := len(snaps[3].Turns); snaps[3].ID != "sess-long" || n != maxTurns+2 {
		t.Fatalf("snapshot %s holds %d turns, want sess-long with %d", snaps[3].ID, n, maxTurns+2)
	}

	dst := newEngine(t, cfg)
	if got := dst.ImportSessions(snaps); got != 4 {
		t.Fatalf("imported %d, want 4", got)
	}
	for _, snap := range snaps {
		turns, ok := dst.SessionTurns(snap.ID)
		if !ok {
			t.Fatalf("session %s missing after import", snap.ID)
		}
		if !reflect.DeepEqual(turns, snap.Turns) {
			t.Fatalf("session %s turns diverge after import", snap.ID)
		}
		// The restored conversation memory must behave like the
		// original: same view for the same upcoming question.
		srcMem, _ := src.SessionMemory(snap.ID, questions[0])
		dstMem, _ := dst.SessionMemory(snap.ID, questions[0])
		if srcMem != dstMem {
			t.Fatalf("session %s memory view diverges after import", snap.ID)
		}
	}
}

func TestImportSessionsNeverClobbersLiveState(t *testing.T) {
	e := newEngine(t, engine.Config{})
	mustAsk(t, e, "live", questions[0])
	before, _ := e.SessionTurns("live")

	stale := []engine.SessionSnapshot{{ID: "live", Turns: []engine.Turn{{Question: "old q", Answer: "old a"}}}}
	if got := e.ImportSessions(stale); got != 0 {
		t.Fatalf("import over live session counted %d, want 0", got)
	}
	after, _ := e.SessionTurns("live")
	if !reflect.DeepEqual(before, after) {
		t.Fatal("import clobbered a live session")
	}
	// Empty and nameless snapshots are skipped, not errors.
	if got := e.ImportSessions([]engine.SessionSnapshot{{ID: ""}, {ID: "empty"}}); got != 0 {
		t.Fatalf("degenerate snapshots imported %d, want 0", got)
	}
}

// TestImportSessionsClampsToMaxTurns: a log record could never have
// kept (twice the bound or more) is compacted by record's own rule.
func TestImportSessionsClampsToMaxTurns(t *testing.T) {
	e := newEngine(t, engine.Config{MaxSessionTurns: 2})
	turns := make([]engine.Turn, 5)
	for i := range turns {
		turns[i] = engine.Turn{Question: fmt.Sprintf("q%d", i), Answer: fmt.Sprintf("a%d", i)}
	}
	e.ImportSessions([]engine.SessionSnapshot{{ID: "s", Turns: turns}})
	got, _ := e.SessionTurns("s")
	want := turns[3:]
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("clamped turns = %v, want most recent 2", got)
	}
}

func TestDropSession(t *testing.T) {
	e := newEngine(t, engine.Config{})
	mustAsk(t, e, "gone", questions[0])
	if !e.DropSession("gone") {
		t.Fatal("DropSession on a live session returned false")
	}
	if _, ok := e.SessionTurns("gone"); ok {
		t.Fatal("session still readable after drop")
	}
	if e.DropSession("gone") {
		t.Fatal("double drop returned true")
	}
	if st := e.Stats(); st.SessionsEvicted != 0 {
		t.Fatalf("DropSession counted as eviction: %d", st.SessionsEvicted)
	}
}

func TestExportImportCacheRoundTrip(t *testing.T) {
	src := newEngine(t, engine.Config{})
	for _, q := range questions[:4] {
		mustAsk(t, src, "s", q)
	}
	entries := src.ExportCache()
	if len(entries) != 4 {
		t.Fatalf("exported %d entries, want 4", len(entries))
	}
	for _, ent := range entries {
		if ent.Scope != src.Scope() {
			t.Fatalf("entry scope %q, want %q", ent.Scope, src.Scope())
		}
	}

	dst := newEngine(t, engine.Config{})
	if got := dst.ImportCache(entries); got != 4 {
		t.Fatalf("imported %d, want 4", got)
	}
	// Every imported question must now be an exact cache hit with the
	// source's answer bytes.
	for _, q := range questions[:4] {
		srcResp := mustAsk(t, src, "check", q)
		dstResp := mustAsk(t, dst, "check", q)
		if dstResp.Tier != engine.TierExact {
			t.Fatalf("question %q not served from cache after import (tier %v)", q, dstResp.Tier)
		}
		if dstResp.Text != srcResp.Text {
			t.Fatalf("answer bytes diverge after import for %q", q)
		}
	}
}

func TestImportCacheSkipsForeignScope(t *testing.T) {
	e := newEngine(t, engine.Config{})
	foreign := []engine.CacheEntry{
		{Scope: "other-retriever\x00other-model\x00", Question: questions[0], Answer: engine.Answer{Text: "wrong"}},
		{Scope: e.Scope(), Question: "", Answer: engine.Answer{Text: "empty"}},
	}
	if got := e.ImportCache(foreign); got != 0 {
		t.Fatalf("foreign-scope import counted %d, want 0", got)
	}
	if st := e.Stats(); st.CacheEntries != 0 {
		t.Fatalf("foreign entries resident: %d", st.CacheEntries)
	}
}

func TestImportCacheFeedsSemanticTier(t *testing.T) {
	src := newEngine(t, engine.Config{SemanticThreshold: 0.85})
	mustAsk(t, src, "s", "List all unique PCs in mcf under LRU.")

	dst := newEngine(t, engine.Config{SemanticThreshold: 0.85})
	if got := dst.ImportCache(src.ExportCache()); got != 1 {
		t.Fatalf("imported %d, want 1", got)
	}
	// A paraphrase must be served by the semantic tier from the
	// imported entry — proof the vector index was rebuilt on import.
	resp := mustAsk(t, dst, "s", "list all unique pcs in mcf under lru?")
	if resp.Tier != engine.TierSemantic {
		t.Fatalf("paraphrase served from tier %v, want semantic", resp.Tier)
	}
}

func TestExportCacheDisabled(t *testing.T) {
	e := newEngine(t, engine.Config{CacheSize: -1})
	mustAsk(t, e, "s", questions[0])
	if got := e.ExportCache(); got != nil {
		t.Fatalf("cache-disabled export = %v, want nil", got)
	}
	if got := e.ImportCache([]engine.CacheEntry{{Scope: e.Scope(), Question: "q", Answer: engine.Answer{Text: "a"}}}); got != 0 {
		t.Fatalf("cache-disabled import counted %d, want 0", got)
	}
}
