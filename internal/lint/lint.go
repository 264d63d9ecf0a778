// Package lint is cachemindlint: a suite of static-analysis passes
// that mechanically enforce this repository's documented invariants —
// the contracts ARCHITECTURE.md spells out in prose, turned into
// build-breaking checks.
//
// The suite is modeled on golang.org/x/tools/go/analysis but is
// self-contained (stdlib only): each Analyzer runs over one
// type-checked package and reports Diagnostics. cmd/cachemindlint
// compiles the suite into a `go vet -vettool=` compatible binary (see
// unitchecker.go for the driver protocol), so `make lint` and CI run
// it over ./... exactly as they run the stock vet passes.
//
// # The analyzers
//
//   - noalloc      — functions annotated //cachemind:noalloc (the
//     cached exact-hit ask path) may not contain allocating
//     constructs: fmt/errors calls, string<->[]byte conversions
//     outside zero-copy contexts, make/new, escaping composite
//     literals, closures, interface boxing, string concatenation.
//     Sanctioned miss-path allocations carry a
//     //cachemind:allow-alloc waiver on or above the line.
//   - determinism  — packages (or files) marked
//     //cachemind:deterministic may not call time.Now/Since/Until or
//     unseeded math/rand top-level functions, and may not range over
//     a map into ordered output (an appended slice or a direct
//     fmt.Fprint) without a sort barrier.
//   - ctxflow      — a function that receives a context.Context must
//     thread it: calls to context.Background()/context.TODO() inside
//     such a function sever cancellation and are flagged
//     (//cachemind:allow-ctx waives the documented detach points).
//   - lockscope    — a sync.Mutex/RWMutex Lock must pair with an
//     Unlock in the same function, and the held region may not
//     contain channel sends or calls into the slow pipeline
//     (Retrieve/Answer/AnalysisAnswer/Invoke) or HTTP round-trips.
//   - wirecodes    — every engine.Code constant must have an explicit
//     case in the daemon's statusForCode table, an entry in its
//     wireCodes metrics registry, and an appearance in the README's
//     wire-contract docs.
//
// Each analyzer ships with positive and negative fixtures under
// testdata/src (run by linttest, an analysistest-style harness), so a
// no-op regression in an analyzer is itself caught.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one named pass over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run inspects the package via pass and reports findings through
	// pass.Reportf. The error return is for operational failures
	// (malformed inputs), not findings.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked state to an
// analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's syntax trees, test files excluded — the
	// invariants guard production code; tests exercise violations on
	// purpose.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Dir is the package directory on disk (used by analyzers that
	// consult repository docs, e.g. wirecodes' README check).
	Dir string

	// report receives each diagnostic; set by the driver.
	report func(Diagnostic)

	// directives caches the per-file directive index.
	directives map[*ast.File]*fileDirectives
}

// NewPass constructs a Pass for drivers outside this package (the
// linttest harness); unitchecker builds its passes directly.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, dir string, report func(Diagnostic)) *Pass {
	return &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, Info: info, Dir: dir, report: report}
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a finding at pos. The analyzer name is prefixed so
// a waiver hunt always knows which pass fired.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf("[%s] ", p.Analyzer.Name) + fmt.Sprintf(format, args...)})
}

// Analyzers is the registered suite, in the order the driver runs it.
var Analyzers = []*Analyzer{
	NoAllocAnalyzer,
	DeterminismAnalyzer,
	CtxFlowAnalyzer,
	LockScopeAnalyzer,
	WireCodesAnalyzer,
}

// ---- directive handling ------------------------------------------------

// Directive spellings. A directive is a //cachemind:<verb> comment; the
// verb may be followed by arguments (a scope word, a waiver reason).
const (
	dirNoAlloc       = "noalloc"       // on a function: allocation-free contract
	dirAllowAlloc    = "allow-alloc"   // line waiver for noalloc
	dirDeterministic = "deterministic" // on a package clause: deterministic scope
	dirAllowNonDet   = "allow-nondet"  // line waiver for determinism
	dirAllowCtx      = "allow-ctx"     // line waiver for ctxflow
	dirAllowLock     = "allow-lock"    // line waiver for lockscope
)

const directivePrefix = "//cachemind:"

// parseDirective returns the verb and argument text of a cachemind
// directive comment, or ok=false for any other comment.
func parseDirective(c *ast.Comment) (verb, args string, ok bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return "", "", false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	verb, args, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(verb), strings.TrimSpace(args), true
}

// hasDirective reports whether the comment group carries the verb.
func hasDirective(g *ast.CommentGroup, verb string) bool {
	if g == nil {
		return false
	}
	for _, c := range g.List {
		if v, _, ok := parseDirective(c); ok && v == verb {
			return true
		}
	}
	return false
}

// fileDirectives indexes one file's line-waiver comments by line.
type fileDirectives struct {
	// waivers maps verb -> set of lines the waiver covers. A waiver on
	// line N covers findings on N and N+1, so the comment may sit on
	// the offending line or on its own line directly above.
	waivers map[string]map[int]bool
}

func (p *Pass) fileDirective(f *ast.File) *fileDirectives {
	if p.directives == nil {
		p.directives = map[*ast.File]*fileDirectives{}
	}
	if d, ok := p.directives[f]; ok {
		return d
	}
	d := &fileDirectives{waivers: map[string]map[int]bool{}}
	for _, g := range f.Comments {
		for _, c := range g.List {
			verb, _, ok := parseDirective(c)
			if !ok {
				continue
			}
			switch verb {
			case dirAllowAlloc, dirAllowNonDet, dirAllowCtx, dirAllowLock:
				line := p.Fset.Position(c.Pos()).Line
				m := d.waivers[verb]
				if m == nil {
					m = map[int]bool{}
					d.waivers[verb] = m
				}
				m[line] = true
				m[line+1] = true
			}
		}
	}
	p.directives[f] = d
	return d
}

// waived reports whether a finding at pos inside file f is covered by
// a line waiver of the given verb (on the same line, or the line
// above).
func (p *Pass) waived(f *ast.File, pos token.Pos, verb string) bool {
	d := p.fileDirective(f)
	m := d.waivers[verb]
	if m == nil {
		return false
	}
	return m[p.Fset.Position(pos).Line]
}

// fileFor returns the *ast.File containing pos.
func (p *Pass) fileFor(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// ---- shared type helpers ----------------------------------------------

// calleeFunc resolves a call expression to the *types.Func it invokes
// (package function or method), or nil for indirect/builtin calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// calleePkgFunc returns the callee's (package path, name) when the
// call resolves to a named function or method; ok=false otherwise.
func calleePkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// isTypeConversion reports whether call is a type conversion (not a
// function call), returning the target type.
func isTypeConversion(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// isString / isByteSlice classify conversion operand types.
func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t are stored directly in an
// interface word (no heap allocation when boxed).
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

// funcDisplayName renders a function declaration's name, with the
// receiver type for methods (e.g. "(*Engine).Ask").
func funcDisplayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	var b strings.Builder
	b.WriteString("(")
	writeRecvType(&b, fd.Recv.List[0].Type)
	b.WriteString(").")
	b.WriteString(fd.Name.Name)
	return b.String()
}

func writeRecvType(b *strings.Builder, e ast.Expr) {
	switch t := e.(type) {
	case *ast.StarExpr:
		b.WriteString("*")
		writeRecvType(b, t.X)
	case *ast.Ident:
		b.WriteString(t.Name)
	case *ast.IndexExpr: // generic receiver
		writeRecvType(b, t.X)
	case *ast.IndexListExpr:
		writeRecvType(b, t.X)
	default:
		b.WriteString("?")
	}
}
