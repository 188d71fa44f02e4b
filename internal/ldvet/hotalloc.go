package ldvet

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc flags allocation-introducing constructs inside functions marked
// //ldvet:hotpath. PR 6 drove the per-line ingestion path to zero
// allocations and gated it with testing.AllocsPerRun; those gates catch a
// regression only after it lands and only in aggregate. This analyzer turns
// the same invariant into per-position diagnostics:
//
//   - string(b) conversions of byte slices, except the compiler-optimized
//     forms (map index m[string(b)], string comparisons) and conversions on
//     error paths;
//   - calls into fmt, the allocating strings helpers (Split, Fields, Join,
//     Replace, ToLower, ...) and regexp package-level functions (compiled
//     *Regexp METHOD calls are the sanctioned confirmation step and are not
//     flagged);
//   - make of maps and channels, and 2-arg slice make (the repo's amortized
//     buffers use the 3-arg form with an explicit capacity);
//   - map and non-empty slice composite literals, &T{} and new(T);
//   - append to a slice variable declared without preallocated capacity
//     (var x []T / x := []T{}), which reallocates as it grows;
//   - interface boxing: passing a concrete non-pointer value to an
//     interface parameter.
//
// Error paths are cold by convention: any construct inside a call whose
// results include an error (strconv fallbacks, parse.Errorf, fmt.Errorf)
// is exempt — by the time an error is being built, the allocation-free
// budget no longer applies. Deliberate allocations (amortized per-block
// buffers, first-sight cache fills) carry //ldvet:allow hotpath-alloc with
// a rationale.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flag allocation-introducing constructs in //ldvet:hotpath functions\n" +
		"(string(b) conversions, fmt/strings/regexp calls, map/slice literals,\n" +
		"unpreallocated append, interface boxing); suppress with\n" +
		"//ldvet:allow hotpath-alloc",
	Run: runHotalloc,
}

const hotpathMarker = "ldvet:hotpath"

// allocStringsFuncs are the strings helpers that always allocate.
var allocStringsFuncs = map[string]bool{
	"Split": true, "SplitN": true, "SplitAfter": true, "SplitAfterN": true,
	"Fields": true, "FieldsFunc": true, "Join": true, "Repeat": true,
	"Replace": true, "ReplaceAll": true, "ToLower": true, "ToUpper": true,
	"Title": true, "ToTitle": true, "Map": true, "Clone": true,
}

func runHotalloc(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !funcHasMarker(pass.Fset, file, fd, hotpathMarker) {
				continue
			}
			ha := &hotCheck{pass: pass, file: file}
			ha.prepare(fd)
			ha.check(fd)
		}
	}
}

type hotCheck struct {
	pass    *Pass
	file    *ast.File
	parent  map[ast.Node]ast.Node
	cold    []ast.Node            // error-returning call exprs: their subtrees are cold
	bareVar map[types.Object]bool // slice locals declared without capacity
}

func (ha *hotCheck) info() *types.Info { return ha.pass.Pkg.Info }

// prepare builds the parent map, the cold (error-path) call list and the
// set of slice locals declared without preallocated capacity.
func (ha *hotCheck) prepare(fd *ast.FuncDecl) {
	ha.parent = make(map[ast.Node]ast.Node)
	ha.bareVar = make(map[types.Object]bool)
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			ha.parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)

		switch n := n.(type) {
		case *ast.CallExpr:
			if ha.returnsError(n) {
				ha.cold = append(ha.cold, n)
			}
		case *ast.ValueSpec:
			// var x []T (no value, no capacity)
			if len(n.Values) == 0 {
				for _, name := range n.Names {
					if obj := ha.info().Defs[name]; obj != nil && isPlainSlice(obj.Type()) {
						ha.bareVar[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := ha.info().Defs[id]
				if obj == nil || !isPlainSlice(obj.Type()) {
					continue
				}
				if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.CompositeLit); ok && len(lit.Elts) == 0 {
					ha.bareVar[obj] = true // x := []T{}
				}
			}
		}
		return true
	})
}

func isPlainSlice(t types.Type) bool {
	_, ok := t.Underlying().(*types.Slice)
	return ok
}

// returnsError reports whether the call's results include an
// error-implementing type: building an error is the cold path.
func (ha *hotCheck) returnsError(call *ast.CallExpr) bool {
	tv, ok := ha.info().Types[call]
	if !ok || tv.IsType() {
		return false
	}
	check := func(t types.Type) bool {
		return t != nil && types.Implements(t, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if check(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return check(tv.Type)
}

// coldPath reports whether n sits inside an error-returning call's
// argument subtree (or is such a call itself).
func (ha *hotCheck) coldPath(n ast.Node) bool {
	for _, c := range ha.cold {
		if c.Pos() <= n.Pos() && n.End() <= c.End() {
			return true
		}
	}
	return false
}

func (ha *hotCheck) flag(n ast.Node, format string, args ...any) {
	if ha.coldPath(n) {
		return
	}
	if ha.pass.Allowed(ha.file, n.Pos(), "hotpath-alloc") {
		return
	}
	ha.pass.Reportf(n.Pos(), format, args...)
}

func (ha *hotCheck) check(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			ha.checkCall(n)
		case *ast.CompositeLit:
			ha.checkCompositeLit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok && !ha.coldPath(n) {
					ha.flag(n, "&composite literal allocates on every call in a //ldvet:hotpath function; hoist it, reuse a buffer, or annotate //ldvet:allow hotpath-alloc")
				}
			}
		}
		return true
	})
}

func (ha *hotCheck) checkCompositeLit(lit *ast.CompositeLit) {
	tv, ok := ha.info().Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		ha.flag(lit, "map literal allocates on every call in a //ldvet:hotpath function; hoist it to a package var or reuse a map")
	case *types.Slice:
		if len(lit.Elts) > 0 { // empty literals are caught at the appends that grow them
			ha.flag(lit, "slice literal allocates on every call in a //ldvet:hotpath function; hoist it or reuse a preallocated buffer")
		}
	}
}

func (ha *hotCheck) checkCall(call *ast.CallExpr) {
	info := ha.info()
	// Conversions: string(byteSlice).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		ha.checkStringConv(call, tv.Type)
		return
	}
	// Builtins: make, new, append.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				ha.checkMake(call)
			case "new":
				ha.flag(call, "new(T) allocates on every call in a //ldvet:hotpath function; reuse a value or hoist it")
			case "append":
				ha.checkAppend(call)
			}
			return
		}
	}
	// Named functions: fmt / allocating strings helpers / regexp
	// package-level functions.
	if fn := ha.calleeFunc(call); fn != nil && fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "fmt":
			ha.flag(call, "fmt.%s allocates (formatting + boxing) in a //ldvet:hotpath function; use manual byte formatting or move it off the hot path", fn.Name())
			return
		case "strings":
			if allocStringsFuncs[fn.Name()] {
				ha.flag(call, "strings.%s allocates its result in a //ldvet:hotpath function; use index-based scanning over the bytes instead", fn.Name())
				return
			}
		case "regexp":
			if fn.Type().(*types.Signature).Recv() == nil {
				ha.flag(call, "regexp.%s compiles/allocates per call in a //ldvet:hotpath function; use a package-level compiled pattern's methods", fn.Name())
				return
			}
		}
	}
	ha.checkBoxing(call)
}

func (ha *hotCheck) checkStringConv(call *ast.CallExpr, target types.Type) {
	bt, ok := target.Underlying().(*types.Basic)
	if !ok || bt.Info()&types.IsString == 0 || len(call.Args) != 1 {
		return
	}
	at := ha.info().Types[call.Args[0]].Type
	if at == nil {
		return
	}
	st, ok := at.Underlying().(*types.Slice)
	if !ok {
		return
	}
	if eb, ok := st.Elem().Underlying().(*types.Basic); !ok || eb.Kind() != types.Uint8 {
		return
	}
	// Compiler-optimized forms do not allocate: m[string(b)] lookups and
	// string(b) in comparisons.
	switch p := ha.parent[call].(type) {
	case *ast.IndexExpr:
		if p.Index == call {
			if _, isMap := ha.info().Types[p.X].Type.Underlying().(*types.Map); isMap {
				return
			}
		}
	case *ast.BinaryExpr:
		switch p.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			return
		}
	}
	ha.flag(call, "string(b) materializes a copy on every call in a //ldvet:hotpath function; keep the bytes, or batch the copy (errlog.EventBatch / an intern cache) and annotate //ldvet:allow hotpath-alloc")
}

func (ha *hotCheck) checkMake(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	tv, ok := ha.info().Types[call.Args[0]]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		ha.flag(call, "make(map) allocates on every call in a //ldvet:hotpath function; reuse a map or move construction off the hot path")
	case *types.Chan:
		ha.flag(call, "make(chan) allocates on every call in a //ldvet:hotpath function; channels belong in setup code")
	case *types.Slice:
		if len(call.Args) == 2 {
			ha.flag(call, "2-arg make([]T, n) allocates without an amortization capacity in a //ldvet:hotpath function; use make([]T, 0, cap) sized per block, or reuse a buffer")
		}
	}
}

func (ha *hotCheck) checkAppend(call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	for {
		if s, ok := dst.(*ast.SliceExpr); ok {
			dst = ast.Unparen(s.X)
			continue
		}
		break
	}
	id, ok := dst.(*ast.Ident)
	if !ok {
		return
	}
	obj := ha.info().Uses[id]
	if obj == nil {
		obj = ha.info().Defs[id]
	}
	if obj != nil && ha.bareVar[obj] {
		ha.flag(call, "append to %s grows an unpreallocated slice in a //ldvet:hotpath function; declare it with make([]T, 0, cap) to amortize", id.Name)
	}
}

// checkBoxing flags concrete non-pointer arguments passed to interface
// parameters: the conversion heap-allocates the value.
func (ha *hotCheck) checkBoxing(call *ast.CallExpr) {
	tv, ok := ha.info().Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if params == nil || params.Len() == 0 {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // a ...spread passes the slice, no boxing per element
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		atv, ok := ha.info().Types[arg]
		if !ok || atv.Type == nil || atv.Value != nil { // constants: skip
			continue
		}
		switch atv.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer, *types.Signature:
			continue // no heap allocation for these
		}
		if b, ok := atv.Type.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		ha.flag(arg, "passing %s by value to an interface parameter boxes it (heap allocation) in a //ldvet:hotpath function; pass a pointer or avoid the interface on the hot path",
			types.TypeString(atv.Type, types.RelativeTo(ha.pass.Pkg.Types)))
	}
}

// calleeFunc resolves the called *types.Func, or nil.
func (ha *hotCheck) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := ha.pass.Pkg.Info.Uses[id].(*types.Func)
	return fn
}
