package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NoAllocAnalyzer enforces the engine's allocation discipline (see the
// "Allocation discipline" section of internal/engine's package docs):
// a function annotated //cachemind:noalloc is part of the cached
// exact-hit ask path, whose zero-allocs/op contract is pinned by
// engine.TestCachedAskAllocs and the loadgen -max-allocs CI gate, or
// one of the query executor's scan kernels, whose constant allocation
// count is pinned by queryir.TestScalarAggregationAllocs. The
// analyzer flags the allocating constructs a careless edit is most
// likely to introduce:
//
//   - calls into fmt or errors (every fmt call boxes its arguments);
//   - string<->[]byte/[]rune conversions, except the zero-copy forms
//     the compiler guarantees (a map index m[string(b)] and a string
//     comparison string(b) == s);
//   - make, new, and heap-bound composite literals (&T{...}, slice
//     and map literals — plain value literals T{} are stack-shaped
//     and allowed);
//   - function literals (closure captures allocate);
//   - taking the address of a function-local variable (&v escapes);
//   - interface boxing: passing, assigning or returning a
//     non-pointer-shaped concrete value as an interface;
//   - non-constant string concatenation;
//   - append onto a fresh backing array (a composite literal or a
//     []T(nil) conversion) — appending into caller-provided or
//     resliced buffers is the pooled-scratch idiom and allowed.
//
// The check is intraprocedural by design: a call into another
// function is that function's business (annotate it too if it is on
// the hot path). Sanctioned allocations — the documented once-per-miss
// key materialization, the single-flight call construction — carry a
// //cachemind:allow-alloc <reason> waiver on the offending line or the
// line directly above.
var NoAllocAnalyzer = &Analyzer{
	Name: "noalloc",
	Doc:  "flag allocating constructs in //cachemind:noalloc functions (the zero-alloc cached-ask contract)",
	Run:  runNoAlloc,
}

// allocBannedPkgs are packages whose every call allocates (boxing,
// buffer construction) and that have no business on the zero-alloc
// path.
var allocBannedPkgs = map[string]bool{
	"fmt":    true,
	"errors": true,
}

func runNoAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasDirective(fd.Doc, dirNoAlloc) {
				continue
			}
			checkNoAllocFunc(pass, f, fd)
		}
	}
	return nil
}

func checkNoAllocFunc(pass *Pass, f *ast.File, fd *ast.FuncDecl) {
	name := funcDisplayName(fd)
	report := func(pos token.Pos, format string, args ...any) {
		if pass.waived(f, pos, dirAllowAlloc) {
			return
		}
		args = append(args, name)
		pass.Reportf(pos, format+" in //cachemind:noalloc function %s", args...)
	}

	// locals collects objects declared inside the function body, for
	// the address-of-local escape check.
	locals := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.Info.Defs[id]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					locals[obj] = true
				}
			}
		}
		return true
	})

	// Conversions the compiler guarantees are zero-copy: string(b) as a
	// map index and string(b) in a comparison. Collect them first so the
	// conversion check can skip them.
	zeroCopy := map[*ast.CallExpr]bool{}
	markZeroCopy := func(e ast.Expr) {
		if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
			if t, isConv := isTypeConversion(pass.Info, call); isConv && isString(t) {
				zeroCopy[call] = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.IndexExpr:
			if tv, ok := pass.Info.Types[node.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					markZeroCopy(node.Index)
				}
			}
		case *ast.BinaryExpr:
			switch node.Op {
			case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
				markZeroCopy(node.X)
				markZeroCopy(node.Y)
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			checkNoAllocCall(pass, report, node, zeroCopy)
		case *ast.CompositeLit:
			// Value struct literals are fine; slice/map literals build
			// fresh backing stores. (&T{...} is handled at the UnaryExpr.)
			if t, ok := pass.Info.Types[node]; ok {
				switch t.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					report(node.Pos(), "slice/map literal allocates")
				}
			}
		case *ast.FuncLit:
			report(node.Pos(), "function literal (closure) allocates")
			return false // don't double-report the closure's own body
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				switch x := ast.Unparen(node.X).(type) {
				case *ast.CompositeLit:
					report(node.Pos(), "&composite-literal allocates")
				case *ast.Ident:
					if obj := pass.Info.Uses[x]; obj != nil && locals[obj] {
						report(node.Pos(), "address of local %q escapes", x.Name)
					}
				}
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD {
				if t, ok := pass.Info.Types[node]; ok && isString(t.Type) && t.Value == nil {
					report(node.Pos(), "string concatenation allocates")
				}
			}
		}
		return true
	})

	// Interface boxing at call arguments, assignments and returns.
	checkNoAllocBoxing(pass, report, fd)
}

func checkNoAllocCall(pass *Pass, report func(token.Pos, string, ...any), call *ast.CallExpr, zeroCopy map[*ast.CallExpr]bool) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				report(call.Pos(), "make allocates")
				return
			}
		case "new":
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				report(call.Pos(), "new allocates")
				return
			}
		case "append":
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
				if freshAppendBase(pass.Info, call.Args[0]) {
					report(call.Pos(), "append onto a fresh backing array allocates")
				}
				return
			}
		}
	}

	// Conversions: string<->[]byte outside zero-copy contexts.
	if target, ok := isTypeConversion(pass.Info, call); ok {
		if len(call.Args) != 1 || zeroCopy[call] {
			return
		}
		src, ok := pass.Info.Types[call.Args[0]]
		if !ok {
			return
		}
		stringify := isString(target) && !isString(src.Type)
		byteify := isByteOrRuneSlice(target) && isString(src.Type)
		if (stringify || byteify) && src.Value == nil {
			report(call.Pos(), "string/[]byte conversion allocates")
		}
		return
	}

	// Banned packages.
	if pkg, fname, ok := calleePkgFunc(pass.Info, call); ok && allocBannedPkgs[pkg] {
		report(call.Pos(), "call to %s.%s allocates", pkg, fname)
	}
}

// freshAppendBase reports whether the first argument of an append
// builds a fresh backing array: a composite literal ([]T{...}) or a
// conversion of an untyped nil ([]T(nil) — the clone idiom). Anything
// else (identifiers, fields, reslices, nested appends) reuses existing
// backing and is the pooled-buffer idiom.
func freshAppendBase(info *types.Info, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if _, isConv := isTypeConversion(info, x); isConv && len(x.Args) == 1 {
			if id, ok := ast.Unparen(x.Args[0]).(*ast.Ident); ok && id.Name == "nil" {
				return true
			}
		}
	}
	return false
}

// checkNoAllocBoxing flags implicit conversions of non-pointer-shaped
// concrete values to interface types — the boxing allocation — at call
// arguments, assignments, and returns. Conversions of values that are
// already interfaces, of pointers (stored directly in the interface
// word), and of constants are allowed.
func checkNoAllocBoxing(pass *Pass, report func(token.Pos, string, ...any), fd *ast.FuncDecl) {
	boxed := func(paramT types.Type, arg ast.Expr) bool {
		if !types.IsInterface(paramT) {
			return false
		}
		tv, ok := pass.Info.Types[arg]
		if !ok || tv.Type == nil {
			return false
		}
		if tv.Value != nil { // constants may still box, but small-int
			return false // caching makes this noise in practice
		}
		if tv.IsNil() || types.IsInterface(tv.Type) || pointerShaped(tv.Type) {
			return false
		}
		return true
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, isConv := isTypeConversion(pass.Info, call); isConv {
			return true
		}
		tv, ok := pass.Info.Types[call.Fun]
		if !ok {
			return true
		}
		sig, ok := tv.Type.Underlying().(*types.Signature)
		if !ok {
			return true
		}
		for i, arg := range call.Args {
			var paramT types.Type
			switch {
			case sig.Variadic() && i >= sig.Params().Len()-1:
				if call.Ellipsis.IsValid() {
					continue // passing a slice through: no per-element boxing
				}
				paramT = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
			case i < sig.Params().Len():
				paramT = sig.Params().At(i).Type()
			default:
				continue
			}
			if boxed(paramT, arg) {
				report(arg.Pos(), "interface boxing of non-pointer value allocates")
			}
		}
		return true
	})
}
