package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// WorkspaceEscape enforces the scratch-memory ownership contract: slices and
// buffers obtained from a Workspace type or a sync.Pool are scratch, valid
// only inside the function that grabbed them — storing one into a struct
// field, returning it, or sending it on a channel lets it outlive its
// release and aliases the next user of the same buffer.
//
// The check is a per-function forward taint pass. Sources are (a) reads of a
// field through a workspace-typed value — unless that value is a parameter
// or receiver of the function, which is the documented lending pattern of
// the eig workspace kernels (the caller owns the workspace and knows the
// lifetime) — and (b) (*sync.Pool).Get results. Taint flows through
// assignments into reference-typed locals; sinks are returns (except from
// functions that declare a workspace-typed result, i.e. constructors, and
// of a pooled object handed out whole, see lendsPooled), channel sends, and
// stores into struct fields or maps outside the workspace itself. Only
// reference-typed values (slices, pointers, maps, channels, funcs,
// interfaces) can re-expose scratch memory, so scalar reads (an element, a
// length, an accumulated float) never taint.
var WorkspaceEscape = &Analyzer{
	Name: "workspace-escape",
	Doc: "forbid workspace/sync.Pool scratch memory from being stored into struct " +
		"fields, returned, or sent on channels past its release",
	Run: runWorkspaceEscape,
}

// isWorkspaceType reports whether t (possibly behind a pointer) is a named
// type following the repo's workspace convention.
func isWorkspaceType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return strings.HasSuffix(strings.ToLower(n.Obj().Name()), "workspace")
}

func isRefType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

func runWorkspaceEscape(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWorkspaceEscape(pass, fd)
		}
	}
	return nil
}

type wsEscapeChecker struct {
	pass    *Pass
	info    *types.Info
	params  map[types.Object]bool
	tainted map[types.Object]bool
}

func checkWorkspaceEscape(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	c := &wsEscapeChecker{
		pass:    pass,
		info:    info,
		params:  make(map[types.Object]bool),
		tainted: make(map[types.Object]bool),
	}
	collect := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil {
					c.params[obj] = true
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)

	// Constructors and lenders declare a workspace-typed result; returning
	// workspace memory is their purpose.
	returnsWorkspace := false
	if fd.Type.Results != nil {
		for _, field := range fd.Type.Results.List {
			if isWorkspaceType(info.TypeOf(field.Type)) {
				returnsWorkspace = true
			}
		}
	}

	// Forward taint to fixpoint: assignments whose right side touches a
	// source (or an already-tainted local) taint their reference-typed
	// left-side locals.
	for changed, rounds := true, 0; changed && rounds < 16; rounds++ {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				rhsTainted := false
				for _, r := range n.Rhs {
					if c.containsTaint(r) {
						rhsTainted = true
						break
					}
				}
				if !rhsTainted {
					return true
				}
				for _, l := range n.Lhs {
					id, ok := l.(*ast.Ident)
					if !ok {
						continue
					}
					obj := c.info.Defs[id]
					if obj == nil {
						obj = c.info.Uses[id]
					}
					if obj == nil || c.tainted[obj] || !isRefType(obj.Type()) {
						continue
					}
					c.tainted[obj] = true
					changed = true
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i < len(n.Names) && c.containsTaint(v) {
						if obj := c.info.Defs[n.Names[i]]; obj != nil && !c.tainted[obj] && isRefType(obj.Type()) {
							c.tainted[obj] = true
							changed = true
						}
					}
				}
			}
			return true
		})
	}

	// Sinks.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if returnsWorkspace {
				return true
			}
			for _, res := range n.Results {
				if c.lendsPooled(res) {
					continue
				}
				if c.containsTaint(res) && isRefType(c.info.TypeOf(res)) {
					c.pass.Reportf(res.Pos(), "workspace/pool scratch memory must not be returned; it aliases the next user after release")
				}
			}
		case *ast.SendStmt:
			if c.containsTaint(n.Value) && isRefType(c.info.TypeOf(n.Value)) {
				c.pass.Reportf(n.Value.Pos(), "workspace/pool scratch memory must not be sent on a channel; it aliases the next user after release")
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if i >= len(n.Rhs) && len(n.Rhs) != 1 {
					break
				}
				r := n.Rhs[0]
				if i < len(n.Rhs) {
					r = n.Rhs[i]
				}
				if !c.containsTaint(r) || !isRefType(c.info.TypeOf(r)) {
					continue
				}
				switch lhs := l.(type) {
				case *ast.SelectorExpr:
					// Stores into the workspace itself are its own business.
					if !isWorkspaceType(c.info.TypeOf(lhs.X)) {
						c.pass.Reportf(l.Pos(), "workspace/pool scratch memory must not be stored into a struct field; it aliases the next user after release")
					}
				case *ast.IndexExpr:
					if t := c.info.TypeOf(lhs.X); t != nil {
						if _, ok := t.Underlying().(*types.Map); ok {
							c.pass.Reportf(l.Pos(), "workspace/pool scratch memory must not be stored into a map; it aliases the next user after release")
						}
					}
				}
			}
		}
		return true
	})
}

// isSource reports whether e directly yields workspace- or pool-owned
// memory.
func (c *wsEscapeChecker) isSource(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		// Obtaining the workspace out of a container (en.ws) taints, as does
		// reading a field through a workspace value that the function does
		// not own via its signature.
		if base, ok := e.X.(*ast.Ident); ok {
			obj := c.info.Uses[base]
			if obj != nil && c.params[obj] && isWorkspaceType(obj.Type()) {
				return false // documented lending: workspace passed in by the caller
			}
		}
		if isWorkspaceType(c.info.TypeOf(e.X)) {
			return true
		}
		return isWorkspaceType(c.info.TypeOf(e))
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := c.info.Uses[sel.Sel].(*types.Func); ok {
				return fn.FullName() == "(*sync.Pool).Get"
			}
		}
	}
	return false
}

// lendsPooled reports whether e is a (*sync.Pool).Get result asserted to a
// pointer type: returning it hands out the pooled object itself, whose
// borrower returns it to the pool (stream.FramePool.Get lends its stores
// this way), so it is no escape. A slice asserted out of a pool, or memory
// read out of a lent object, is not the object and stays a source.
func (c *wsEscapeChecker) lendsPooled(e ast.Expr) bool {
	ta, ok := ast.Unparen(e).(*ast.TypeAssertExpr)
	if !ok {
		return false
	}
	if _, ok := c.info.TypeOf(ta).(*types.Pointer); !ok {
		return false
	}
	call, ok := ta.X.(*ast.CallExpr)
	return ok && c.isSource(call)
}

// containsTaint reports whether any subexpression of e is a source or a
// tainted local.
func (c *wsEscapeChecker) containsTaint(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := c.info.Uses[n]; obj != nil && c.tainted[obj] {
				found = true
			}
		case ast.Expr:
			if c.isSource(n) {
				found = true
			}
		}
		return !found
	})
	return found
}
