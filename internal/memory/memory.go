// Package memory implements the conversation-memory layer the paper
// augments its generator with: a sliding buffer of recent turns,
// compact summaries of evicted turns, and similarity recall over past
// findings that re-surfaces relevant slices when similar questions
// recur — enabling the multi-turn analysis sessions of §6.3.
//
// The state is one turn log. Every view — the buffer, the summaries,
// the recalls — is derived from it when read, by ContextBlock and its
// helpers, so recording a turn is a single append and a caller that
// already keeps a turn log (internal/engine's sessions) renders the
// view from that log without keeping a second copy.
package memory

import (
	"fmt"
	"sort"
	"strings"

	"cachemind/internal/embed"
)

// maxSummaries is how many summaries of older turns a context block
// shows (the most recent ones).
const maxSummaries = 5

// Turn is one question/answer exchange. The JSON tags are the wire
// format of internal/engine's session logs (GET /v1/sessions/{id} and
// cachemind-checkpoint/v1).
type Turn struct {
	Question string `json:"question"`
	Answer   string `json:"answer"`
}

// Conversation is the generator's memory: the turn log plus the
// verbatim-buffer depth its view is rendered with.
//
// Concurrency contract: not safe for concurrent use — Add appends to
// the log. Callers serving concurrent traffic must guard each
// Conversation with a lock, or keep the log themselves and render it
// with ContextBlock (internal/engine does the latter).
type Conversation struct {
	bufferCap int
	turns     []Turn
}

// New creates a conversation memory holding bufferCap recent turns
// verbatim (minimum 1).
func New(bufferCap int) *Conversation {
	return &Conversation{bufferCap: clampBuffer(bufferCap)}
}

func clampBuffer(bufferCap int) int { return max(bufferCap, 1) }

// Add records a completed turn. Turns past the verbatim buffer are
// shown as summaries and stay reachable through Recall.
func (c *Conversation) Add(question, answer string) {
	c.turns = append(c.turns, Turn{Question: question, Answer: answer})
}

// Len returns the number of turns recorded overall.
func (c *Conversation) Len() int { return len(c.turns) }

// Recent returns the buffered turns, oldest first.
func (c *Conversation) Recent() []Turn {
	return append([]Turn(nil), c.turns[split(len(c.turns), c.bufferCap):]...)
}

// Summaries returns the compacted older turns, oldest first.
func (c *Conversation) Summaries() []string {
	var out []string
	for _, t := range c.turns[:split(len(c.turns), c.bufferCap)] {
		out = append(out, summarize(t))
	}
	return out
}

// Recall returns up to k past turns relevant to the question, found by
// vector similarity — the re-retrieval path for "as computed earlier"
// follow-ups.
func (c *Conversation) Recall(question string, k int) []string {
	hits := recall(c.turns, question, k)
	out := make([]string, 0, len(hits))
	for _, i := range hits {
		out = append(out, recallText(c.turns[i]))
	}
	return out
}

// ContextBlock renders the memory contribution to a prompt; see the
// package-level ContextBlock.
func (c *Conversation) ContextBlock(question string) string {
	return ContextBlock(c.turns, c.bufferCap, question)
}

// ContextBlock renders the memory view of a turn log: summaries of the
// turns older than the verbatim buffer (the last few shown), then the
// last bufferCap turns verbatim, then — once any turn has left the
// buffer — the two turns most similar to the upcoming question. It is
// a pure function of its arguments; every embedding is computed here,
// at read time.
func ContextBlock(turns []Turn, bufferCap int, question string) string {
	older := split(len(turns), clampBuffer(bufferCap))
	var b strings.Builder
	if older > 0 {
		b.WriteString("Earlier findings:\n")
		for _, t := range turns[max(0, older-maxSummaries):older] {
			b.WriteString("  " + summarize(t) + "\n")
		}
	}
	for _, t := range turns[older:] {
		fmt.Fprintf(&b, "User: %s\nAssistant: %s\n", firstLine(t.Question), firstLine(t.Answer))
	}
	if older > 0 {
		if hits := recall(turns, question, 2); len(hits) > 0 {
			b.WriteString("Recalled relevant turns:\n")
			for _, i := range hits {
				b.WriteString("  " + firstLine(recallText(turns[i])) + "\n")
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// split returns where the verbatim buffer starts in an n-turn log:
// turns before it are summarized.
func split(n, bufferCap int) int { return max(0, n-bufferCap) }

// recallText is the text a turn is embedded and recalled as.
func recallText(t Turn) string { return t.Question + " " + t.Answer }

// recall returns the indices of the k turns most similar to the
// question, by descending cosine score; on a tie the earlier turn wins.
func recall(turns []Turn, question string, k int) []int {
	k = min(max(k, 0), len(turns))
	idx := make([]int, len(turns))
	for i := range idx {
		idx[i] = i
	}
	q := embed.Embed(question)
	if q == (embed.Vector{}) {
		// A query with no n-grams embeds to zero and scores 0 against
		// every turn: all tie, so the earliest turns win without
		// embedding any of them.
		return idx[:k]
	}
	scores := make([]float64, len(turns))
	for i, t := range turns {
		scores[i] = embed.Cosine(q, embed.Embed(recallText(t)))
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// summarize compacts a turn into one line: the question plus the
// answer's leading clause.
func summarize(t Turn) string {
	ans := t.Answer
	if i := strings.IndexAny(ans, ".\n"); i > 0 {
		ans = ans[:i]
	}
	if len(ans) > 120 {
		ans = ans[:120] + "..."
	}
	return "Q: " + firstLine(t.Question) + " -> " + ans
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
