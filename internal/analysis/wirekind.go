package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"sort"
	"strings"
)

// WireKind enforces exhaustiveness of switch statements over the wire
// protocol's message Kind type. Decoders and routers that switch on Kind are
// the protocol's dispatch points; when a new kind is added (the clock and
// obs-report kinds came after the first eight), a switch that silently falls
// through to a default — or worse, to nothing — drops frames without an
// error, the one failure mode a loss-free transport must not have. Every
// Kind constant must appear as a case, even when a default exists: the
// default is for hostile input, not for kinds the build already knows about.
// A deliberately partial switch takes a //streamvet:ignore with its reason.
var WireKind = &Analyzer{
	Name: "wirekind",
	Doc:  "require switches over the wire message Kind type to enumerate every Kind constant",
	Run:  runWireKind,
}

// isWireKindType reports whether t is the named type Kind declared in the
// wire package.
func isWireKindType(t types.Type) (*types.Named, bool) {
	n, ok := t.(*types.Named)
	if !ok {
		return nil, false
	}
	obj := n.Obj()
	if obj.Name() != "Kind" || obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/wire") {
		return nil, false
	}
	return n, true
}

// kindConstants returns every package-level constant of the Kind type,
// ordered by value.
func kindConstants(n *types.Named) []*types.Const {
	scope := n.Obj().Pkg().Scope()
	var consts []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), n) {
			continue
		}
		consts = append(consts, c)
	}
	sort.Slice(consts, func(i, j int) bool {
		vi, _ := constant.Int64Val(consts[i].Val())
		vj, _ := constant.Int64Val(consts[j].Val())
		return vi < vj
	})
	return consts
}

func runWireKind(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(node ast.Node) bool {
			sw, ok := node.(*ast.SwitchStmt)
			if !ok || sw.Tag == nil {
				return true
			}
			t := info.TypeOf(sw.Tag)
			if t == nil {
				return true
			}
			named, ok := isWireKindType(t)
			if !ok {
				return true
			}
			covered := make(map[string]bool)
			for _, clause := range sw.Body.List {
				cc, ok := clause.(*ast.CaseClause)
				if !ok {
					continue
				}
				for _, e := range cc.List {
					var id *ast.Ident
					switch e := ast.Unparen(e).(type) {
					case *ast.Ident:
						id = e
					case *ast.SelectorExpr:
						id = e.Sel
					}
					if id == nil {
						continue
					}
					if c, ok := info.Uses[id].(*types.Const); ok {
						covered[c.Name()] = true
					}
				}
			}
			var missing []string
			for _, c := range kindConstants(named) {
				if !covered[c.Name()] {
					missing = append(missing, c.Name())
				}
			}
			if len(missing) > 0 {
				pass.Reportf(sw.Pos(), "switch over %s does not handle %s; every Kind needs a case even when a default exists",
					t, strings.Join(missing, ", "))
			}
			return true
		})
	}
	return nil
}
