package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lifecyclePkgs are the packages whose goroutines must be reclaimable: the
// stream runtime and the pipeline supervisor restart failed operators
// (Revive) and tear whole graphs down on cancellation, which only works when
// every spawned goroutine is observably tied to a completion mechanism.
var lifecyclePkgs = []string{
	"internal/stream",
	"internal/pipeline",
	"internal/ingest",
	"internal/wire",
}

// GoroutineLifecycle requires every go statement in the stream/pipeline
// layers to be tied to a WaitGroup, a stop/done channel, or a context: the
// spawned body (or, for `go f()` calls, f's body when it is resolvable
// within the package) must contain a WaitGroup Done/Wait, a ctx.Done
// subscription, a channel receive/range/close, or a blocking select —
// otherwise Revive and shutdown can leak the worker forever.
var GoroutineLifecycle = &Analyzer{
	Name: "goroutine-lifecycle",
	Doc: "require every go statement in the stream, pipeline, ingest and wire " +
		"layers to be tied to a WaitGroup, stop channel, or context",
	Match: func(pkgPath string) bool {
		for _, p := range lifecyclePkgs {
			if strings.HasSuffix(pkgPath, p) {
				return true
			}
		}
		return false
	},
	Run: runGoroutineLifecycle,
}

func runGoroutineLifecycle(pass *Pass) error {
	info := pass.Pkg.Info
	// Index the package's function declarations so `go f()` and
	// `go recv.m()` spawns can be resolved to their bodies.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			switch fun := ast.Unparen(gs.Call.Fun).(type) {
			case *ast.FuncLit:
				body = fun.Body
			case *ast.Ident:
				if fn, ok := info.Uses[fun].(*types.Func); ok {
					if fd := decls[fn]; fd != nil {
						body = fd.Body
					}
				}
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
					if fd := decls[fn]; fd != nil {
						body = fd.Body
					}
				}
			}
			if body == nil || !lifecycleTied(info, body) {
				pass.Reportf(gs.Pos(), "goroutine is not tied to a WaitGroup, stop channel, or context; Revive/shutdown can leak it")
			}
			return true
		})
	}
	return nil
}

// lifecycleTied reports whether a goroutine body contains any construct that
// ties its lifetime to an external completion signal.
func lifecycleTied(info *types.Info, body *ast.BlockStmt) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			switch fun := ast.Unparen(n.Fun).(type) {
			case *ast.Ident:
				// close(ch): ending a done channel is itself a completion
				// signal to the goroutine's supervisor.
				if b, ok := info.Uses[fun].(*types.Builtin); ok && b.Name() == "close" {
					tied = true
				}
			case *ast.SelectorExpr:
				if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
					switch fn.FullName() {
					case "(*sync.WaitGroup).Done", "(*sync.WaitGroup).Wait",
						"(context.Context).Done", "(context.Context).Err":
						tied = true
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				tied = true // receives, including <-ctx.Done() and stop channels
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					tied = true // terminates when the producer closes the channel
				}
			}
		}
		return !tied
	})
	return tied
}
