package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cachemind/internal/embed"
	"cachemind/internal/memory"
)

// refConversation is the conversation memory as it was when each
// session kept one beside its turn log: a verbatim buffer, summaries
// written when a turn leaves the buffer, and a vector index embedded
// on every Add. It is frozen here as the reference that the view
// derived from the log (memory.ContextBlock) must reproduce byte for
// byte.
type refConversation struct {
	bufferCap int
	buffer    []Turn
	summaries []string
	vector    *embed.Index
	turnCount int
}

func newRefConversation(bufferCap int) *refConversation {
	if bufferCap < 1 {
		bufferCap = 1
	}
	return &refConversation{bufferCap: bufferCap, vector: embed.NewIndex()}
}

func (c *refConversation) Add(question, answer string) {
	c.turnCount++
	id := fmt.Sprintf("turn-%04d", c.turnCount)
	c.vector.Add(id, question+" "+answer)
	c.buffer = append(c.buffer, Turn{Question: question, Answer: answer})
	if len(c.buffer) > c.bufferCap {
		old := c.buffer[0]
		c.buffer = c.buffer[1:]
		c.summaries = append(c.summaries, refSummarize(old))
	}
}

func refSummarize(t Turn) string {
	ans := t.Answer
	if i := strings.IndexAny(ans, ".\n"); i > 0 {
		ans = ans[:i]
	}
	if len(ans) > 120 {
		ans = ans[:120] + "..."
	}
	return "Q: " + refFirstLine(t.Question) + " -> " + ans
}

func refFirstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func (c *refConversation) Recent() []Turn { return append([]Turn(nil), c.buffer...) }

func (c *refConversation) Summaries() []string { return append([]string(nil), c.summaries...) }

func (c *refConversation) Recall(question string, k int) []string {
	matches := c.vector.TopK(question, k)
	out := make([]string, 0, len(matches))
	for _, m := range matches {
		if txt, ok := c.vector.Text(m.ID); ok {
			out = append(out, txt)
		}
	}
	return out
}

func (c *refConversation) ContextBlock(question string) string {
	var b strings.Builder
	if len(c.summaries) > 0 {
		b.WriteString("Earlier findings:\n")
		start := 0
		if len(c.summaries) > 5 {
			start = len(c.summaries) - 5
		}
		for _, s := range c.summaries[start:] {
			b.WriteString("  " + s + "\n")
		}
	}
	for _, t := range c.buffer {
		fmt.Fprintf(&b, "User: %s\nAssistant: %s\n", refFirstLine(t.Question), refFirstLine(t.Answer))
	}
	if c.turnCount > c.bufferCap {
		if recalls := c.Recall(question, 2); len(recalls) > 0 {
			b.WriteString("Recalled relevant turns:\n")
			for _, r := range recalls {
				b.WriteString("  " + refFirstLine(r) + "\n")
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// refSession is a session under the reference engine: the turn log
// plus a conversation, rebuilt from the surviving turns whenever the
// log is compacted at twice the bound.
type refSession struct {
	bufferCap, maxTurns int
	turns               []Turn
	conv                *refConversation
}

func (s *refSession) record(question, answer string) {
	s.conv.Add(question, answer)
	s.turns = append(s.turns, Turn{Question: question, Answer: answer})
	if s.maxTurns > 0 && len(s.turns) >= 2*s.maxTurns {
		s.turns = append([]Turn(nil), s.turns[len(s.turns)-s.maxTurns:]...)
		s.conv = newRefConversation(s.bufferCap)
		for _, t := range s.turns {
			s.conv.Add(t.Question, t.Answer)
		}
	}
}

// sessionEngine is an Engine with only its session table: enough for
// record, the session views and snapshot export/import.
func sessionEngine(memoryTurns, maxTurns int) *Engine {
	return &Engine{
		memoryTurns:   memoryTurns,
		maxTurns:      maxTurns,
		sessionShards: []*sessionShard{newSessionShard(0)},
	}
}

// diffWords builds the random turn texts: workloads, policies, PCs and
// filler, so that turns share n-grams in varying degrees.
var diffWords = []string{
	"mcf", "lbm", "omnetpp", "lru", "hawkeye", "mockingjay", "ship",
	"miss", "rate", "hit", "reuse", "distance", "PC", "0x400444",
	"0x400512", "set", "eviction", "ETR", "mean", "which", "policy",
}

func diffText(rng *rand.Rand, words int) string {
	var b strings.Builder
	for i := 0; i < words; i++ {
		if i > 0 {
			switch rng.Intn(12) {
			case 0:
				b.WriteString(". ")
			case 1:
				b.WriteString("\n")
			default:
				b.WriteByte(' ')
			}
		}
		b.WriteString(diffWords[rng.Intn(len(diffWords))])
	}
	return b.String()
}

func diffTurn(rng *rand.Rand) Turn {
	return Turn{
		Question: diffText(rng, 1+rng.Intn(8)) + "?",
		// Up to 60 words: long answers exercise the summary's
		// 120-byte truncation.
		Answer: diffText(rng, rng.Intn(60)),
	}
}

// TestMemoryViewMatchesReference renders random sessions through the
// reference conversation and through the view derived from the engine's
// turn log, and requires identical bytes: for buffers of 1–7 turns,
// retention bounds of 1–20 (so engine compaction runs), up to 120
// turns with frequent repeats, for empty, zero-vector and ordinary
// upcoming questions, and after a snapshot export/import round trip.
func TestMemoryViewMatchesReference(t *testing.T) {
	const sequences = 200
	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		bufferCap := 1 + rng.Intn(7)
		maxTurns := 1 + rng.Intn(20)
		n := rng.Intn(121)
		pool := make([]Turn, 1+rng.Intn(6))
		for i := range pool {
			pool[i] = diffTurn(rng)
		}

		e := sessionEngine(bufferCap, maxTurns)
		ref := &refSession{bufferCap: bufferCap, maxTurns: maxTurns, conv: newRefConversation(bufferCap)}
		conv := memory.New(bufferCap) // never compacted
		flat := newRefConversation(bufferCap)
		queries := func() []string {
			return []string{"", "?", pool[rng.Intn(len(pool))].Question, diffTurn(rng).Question}
		}
		check := func(step int) {
			where := fmt.Sprintf("seq %d (buffer %d, bound %d) after %d turns", seq, bufferCap, maxTurns, step)
			turns, ok := e.SessionTurns("s")
			if !ok || !reflect.DeepEqual(turns, ref.turns) {
				t.Fatalf("%s: turn log diverges from the reference", where)
			}
			snaps := e.ExportSessions()
			imp := sessionEngine(bufferCap, maxTurns)
			if imp.ImportSessions(snaps) != 1 {
				t.Fatalf("%s: snapshot import skipped the session", where)
			}
			for _, q := range queries() {
				want := ref.conv.ContextBlock(q)
				if got, _ := e.SessionMemory("s", q); got != want {
					t.Fatalf("%s, q=%q: memory view\n%s\nwant\n%s", where, q, got, want)
				}
				if _, got, _ := e.SessionView("s", q); got != want {
					t.Fatalf("%s, q=%q: session view diverges from the reference", where, q)
				}
				if got, _ := imp.SessionMemory("s", q); got != want {
					t.Fatalf("%s, q=%q: imported memory view\n%s\nwant\n%s", where, q, got, want)
				}
				if got, want := conv.ContextBlock(q), flat.ContextBlock(q); got != want {
					t.Fatalf("%s, q=%q: Conversation.ContextBlock\n%s\nwant\n%s", where, q, got, want)
				}
				for k := 0; k <= 3; k++ {
					if got, want := conv.Recall(q, k), flat.Recall(q, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, q=%q: Recall(k=%d) = %q, want %q", where, q, k, got, want)
					}
				}
			}
			if !reflect.DeepEqual(conv.Recent(), flat.Recent()) || !reflect.DeepEqual(conv.Summaries(), flat.Summaries()) {
				t.Fatalf("%s: Recent/Summaries diverge from the reference", where)
			}
			if conv.Len() != flat.turnCount {
				t.Fatalf("%s: Len = %d, want %d", where, conv.Len(), flat.turnCount)
			}
		}
		for i := 1; i <= n; i++ {
			tn := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				tn = diffTurn(rng)
				pool = append(pool, tn)
			}
			e.record("s", tn.Question, tn.Answer)
			ref.record(tn.Question, tn.Answer)
			conv.Add(tn.Question, tn.Answer)
			flat.Add(tn.Question, tn.Answer)
			if rng.Intn(16) == 0 {
				check(i)
			}
		}
		if n > 0 {
			check(n)
		}
	}
}
