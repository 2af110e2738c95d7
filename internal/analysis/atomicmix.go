package analysis

import (
	"go/ast"
	"go/types"
)

// AtomicMix enforces two memory-model contracts the lock-free layers (edge
// stats, obs instruments) depend on:
//
//  1. A struct field accessed through sync/atomic functions anywhere in the
//     package must never be read or written plainly — a mixed access is a
//     data race that corrupts counters silently instead of crashing, the
//     exact failure mode the wire stats and 1.5·N sync evidence cannot
//     tolerate.
//  2. A struct holding atomic.Int64-style values (directly or nested) must
//     not be copied by value: the copy tears concurrent updates and forks
//     the counter history. Value receivers, value parameters/results and
//     copying assignments are reported; composite-literal construction and
//     zero-value declarations are not (nothing shared exists yet).
//
// The pass is package-local, like the convention it checks: atomic fields
// are unexported, so every access site is in the declaring package.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "forbid plain access to fields accessed via sync/atomic, and forbid " +
		"copying structs that contain atomic values",
	Run: runAtomicMix,
}

// atomicValueTypes are the sync/atomic struct types whose presence makes a
// containing struct copy-hostile.
var atomicValueTypes = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// isAtomicValueType reports whether t is one of sync/atomic's value types.
func isAtomicValueType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicValueTypes[obj.Name()]
}

// hasAtomicField reports whether t is a struct type containing an atomic
// value, directly or through nested structs (bounded depth, arrays included).
func hasAtomicField(t types.Type, depth int) bool {
	if t == nil || depth > 4 {
		return false
	}
	if isAtomicValueType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasAtomicField(u.Field(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Array:
		return hasAtomicField(u.Elem(), depth+1)
	}
	return false
}

// atomicCopyHostile reports whether a value of type t must not be copied:
// a non-pointer struct (or array of structs) holding atomic values.
func atomicCopyHostile(t types.Type) bool {
	if t == nil {
		return false
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return false
	}
	return hasAtomicField(t, 0)
}

func runAtomicMix(pass *Pass) error {
	info := pass.Pkg.Info

	// Pass 1: find every &x.f handed to a sync/atomic function; record the
	// field object and the selector node (exempt from the plain-access scan).
	atomicFields := make(map[types.Object]string) // field -> atomic func name seen
	exempt := make(map[ast.Node]bool)
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := atomicFuncName(info, call)
			if name == "" {
				return true
			}
			for _, a := range call.Args {
				if obj, sel := addrOfField(info, a); obj != nil {
					atomicFields[obj] = name
					exempt[sel] = true
				}
			}
			return true
		})
	}

	// Pass 2: plain accesses to those fields, and struct-copy sites.
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if exempt[n] {
					return true
				}
				var obj types.Object
				if s := info.Selections[n]; s != nil {
					obj = s.Obj()
				} else if o := info.Uses[n.Sel]; o != nil {
					obj = o
				}
				if obj == nil {
					return true
				}
				if name, ok := atomicFields[obj]; ok {
					pass.Reportf(n.Pos(),
						"plain access to field %s, which is accessed via %s elsewhere; mixed atomic/plain access is a data race",
						obj.Name(), name)
				}
			case *ast.FuncDecl:
				checkAtomicSignature(pass, info, n)
			case *ast.AssignStmt:
				for i, r := range n.Rhs {
					// Assigning to _ evaluates but shares nothing; not a copy
					// anyone can race on.
					if len(n.Lhs) == len(n.Rhs) {
						if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
							continue
						}
					}
					checkAtomicCopyExpr(pass, info, r)
				}
			case *ast.ValueSpec:
				for _, v := range n.Values {
					checkAtomicCopyExpr(pass, info, v)
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					checkAtomicCopyExpr(pass, info, r)
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					if t := info.TypeOf(n.Value); atomicCopyHostile(t) {
						pass.Reportf(n.Value.Pos(),
							"range copies %s by value; it holds atomic values and must be traversed by pointer or index", t)
					}
				}
			}
			return true
		})
	}
	return nil
}

// atomicFuncName returns the sync/atomic package function a call invokes
// ("atomic.AddInt64"), or "" when the call is not one.
func atomicFuncName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return ""
	}
	// Methods of atomic.Int64 etc. are type-safe by construction; only the
	// package-level functions can be mixed with plain accesses.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return ""
	}
	return "atomic." + fn.Name()
}

// addrOfField matches an argument of the form &expr.field, returning the
// field object and the selector node.
func addrOfField(info *types.Info, arg ast.Expr) (types.Object, ast.Node) {
	un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
	if !ok || un.Op.String() != "&" {
		return nil, nil
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	if s := info.Selections[sel]; s != nil {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v, sel
		}
	}
	return nil, nil
}

// checkAtomicSignature reports value receivers, parameters and results of
// atomic-bearing struct types on a function declaration.
func checkAtomicSignature(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	report := func(field *ast.Field, what string) {
		t := info.TypeOf(field.Type)
		if atomicCopyHostile(t) {
			pass.Reportf(field.Pos(), "%s passes %s by value; it holds atomic values and must be passed by pointer", what, t)
		}
	}
	if fd.Recv != nil {
		for _, field := range fd.Recv.List {
			report(field, "receiver")
		}
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			report(field, "parameter")
		}
	}
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			report(field, "result")
		}
	}
}

// checkAtomicCopyExpr reports an expression whose evaluation copies an
// atomic-bearing struct: dereferences, variable reads and call results of
// such types. Composite literals are construction, not copies.
func checkAtomicCopyExpr(pass *Pass, info *types.Info, e ast.Expr) {
	e = ast.Unparen(e)
	switch e.(type) {
	case *ast.CompositeLit, *ast.FuncLit:
		return
	case *ast.UnaryExpr:
		// &T{...} or &x: produces a pointer, no copy.
		return
	}
	t := info.TypeOf(e)
	if !atomicCopyHostile(t) {
		return
	}
	pass.Reportf(e.Pos(), "copies %s by value; it holds atomic values (use a pointer)", t)
}
