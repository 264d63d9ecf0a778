package lint

import (
	"go/ast"
	"strings"
)

// LockScopeAnalyzer enforces the shard-lock discipline: the engine's
// throughput rests on shard and session mutexes being held for
// nanoseconds, never across anything that can block or recurse. Within
// a held region (a sync.Mutex/RWMutex Lock to its matching Unlock in
// the same function, or to function end for a deferred Unlock) the
// analyzer flags:
//
//   - channel sends — except non-blocking sends in a select with a
//     default clause, the engine's sanctioned fire-and-forget idiom;
//   - calls into the slow pipeline: Retrieve, Answer, AnalysisAnswer,
//     Invoke — the retrieval/generation stages that take milliseconds —
//     and ContextBlock, which renders a conversation-memory view by
//     embedding every turn of the log (milliseconds at the session
//     bound; views copy the log under the lock and render outside it);
//   - HTTP round-trips: net/http Do/Get/Post/PostForm/Head and any
//     RoundTrip call.
//
// Separately, every Lock/RLock must have a matching Unlock/RUnlock on
// the same receiver somewhere in the same function — a lock whose
// release lives in a different function is impossible to scope-check
// and is flagged (waive with //cachemind:allow-lock for the rare
// handoff pattern, e.g. sync.Once-style latches).
//
// Matching is textual on the receiver expression (c.mu, s.shards[i].mu):
// the analyzer pairs each Lock with the next Unlock of the same
// spelling. This is deliberately simple — the repo's locks are all
// named fields — and errs toward flagging, with //cachemind:allow-lock
// as the escape hatch.
var LockScopeAnalyzer = &Analyzer{
	Name: "lockscope",
	Doc:  "flag blocking work (channel sends, pipeline calls, HTTP) inside mutex-held regions and unpaired Locks",
	Run:  runLockScope,
}

// slowCalleeNames are methods that enter the cold pipeline, or render
// a memory view; holding a shard or session lock across them
// serializes the cache or the session behind milliseconds of work.
var slowCalleeNames = map[string]bool{
	"Retrieve":       true,
	"Answer":         true,
	"AnalysisAnswer": true,
	"Invoke":         true,
	"RoundTrip":      true,
	"ContextBlock":   true,
}

func runLockScope(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockScopeFunc(pass, f, fd)
		}
	}
	return nil
}

// lockOp is one Lock/Unlock call found in a function body.
type lockOp struct {
	call     *ast.CallExpr
	recv     string // source spelling of the receiver expression
	acquire  bool   // Lock/RLock vs Unlock/RUnlock
	deferred bool
	offset   int // file offset, for ordering and region bounds
}

func checkLockScopeFunc(pass *Pass, f *ast.File, fd *ast.FuncDecl) {
	var ops []lockOp
	deferredCalls := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			deferredCalls[ds.Call] = true
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
			return true
		}
		var acquire bool
		switch fn.Name() {
		case "Lock", "RLock":
			acquire = true
		case "Unlock", "RUnlock":
			acquire = false
		default:
			return true
		}
		ops = append(ops, lockOp{
			call:     call,
			recv:     exprString(pass, sel.X),
			acquire:  acquire,
			deferred: deferredCalls[call],
			offset:   pass.Fset.Position(call.Pos()).Offset,
		})
		return true
	})
	if len(ops) == 0 {
		return
	}

	funcEnd := pass.Fset.Position(fd.Body.End()).Offset

	// Pair each acquire with the next same-receiver release; build the
	// held regions.
	type region struct{ start, end int }
	var regions []region
	used := make([]bool, len(ops))
	for i, op := range ops {
		if !op.acquire {
			continue
		}
		end := -1
		for j, rel := range ops {
			if used[j] || rel.acquire || rel.recv != op.recv || j == i {
				continue
			}
			if rel.deferred {
				// A deferred release guards to function end regardless of
				// where the defer statement sits.
				used[j] = true
				end = funcEnd
				break
			}
			if rel.offset > op.offset {
				used[j] = true
				end = rel.offset
				break
			}
		}
		if end < 0 {
			if !pass.waived(f, op.call.Pos(), dirAllowLock) {
				pass.Reportf(op.call.Pos(), "%s.Lock in %s has no matching Unlock in this function", op.recv, funcDisplayName(fd))
			}
			continue
		}
		regions = append(regions, region{start: pass.Fset.Position(op.call.End()).Offset, end: end})
	}
	if len(regions) == 0 {
		return
	}
	inHeld := func(n ast.Node) bool {
		off := pass.Fset.Position(n.Pos()).Offset
		for _, r := range regions {
			if off > r.start && off < r.end {
				return true
			}
		}
		return false
	}

	// Non-blocking sends (select with a default clause) are sanctioned.
	allowedSends := map[*ast.SendStmt]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				if send, ok := cc.Comm.(*ast.SendStmt); ok {
					allowedSends[send] = true
				}
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SendStmt:
			if allowedSends[node] || !inHeld(node) {
				return true
			}
			if !pass.waived(f, node.Pos(), dirAllowLock) {
				pass.Reportf(node.Pos(), "blocking channel send while a mutex is held in %s", funcDisplayName(fd))
			}
		case *ast.CallExpr:
			if !inHeld(node) {
				return true
			}
			fn := calleeFunc(pass.Info, node)
			if fn == nil {
				return true
			}
			switch {
			case slowCalleeNames[fn.Name()]:
				if !pass.waived(f, node.Pos(), dirAllowLock) {
					pass.Reportf(node.Pos(), "call to slow method %s while a mutex is held in %s", fn.Name(), funcDisplayName(fd))
				}
			case fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && httpOutboundNames[fn.Name()]:
				if !pass.waived(f, node.Pos(), dirAllowLock) {
					pass.Reportf(node.Pos(), "HTTP round-trip (%s.%s) while a mutex is held in %s", fn.Pkg().Path(), fn.Name(), funcDisplayName(fd))
				}
			}
		}
		return true
	})
}

// httpOutboundNames are net/http calls that perform a network
// round-trip.
var httpOutboundNames = map[string]bool{
	"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true,
}

// exprString renders the source spelling of a receiver expression for
// textual lock pairing.
func exprString(pass *Pass, e ast.Expr) string {
	var b strings.Builder
	writeExpr(&b, e)
	return b.String()
}

func writeExpr(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		b.WriteString(x.Name)
	case *ast.SelectorExpr:
		writeExpr(b, x.X)
		b.WriteString(".")
		b.WriteString(x.Sel.Name)
	case *ast.IndexExpr:
		writeExpr(b, x.X)
		b.WriteString("[")
		writeExpr(b, x.Index)
		b.WriteString("]")
	case *ast.ParenExpr:
		writeExpr(b, x.X)
	case *ast.StarExpr:
		b.WriteString("*")
		writeExpr(b, x.X)
	case *ast.UnaryExpr:
		b.WriteString(x.Op.String())
		writeExpr(b, x.X)
	case *ast.BasicLit:
		b.WriteString(x.Value)
	case *ast.CallExpr:
		writeExpr(b, x.Fun)
		b.WriteString("(...)")
	default:
		b.WriteString("?")
	}
}
