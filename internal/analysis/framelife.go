package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Framelife enforces the pooled-object lifetime contract of the micro-batched
// transport: a stream.Frame whose storage comes from a transport pool must be
// Released at most once per execution path, never touched after its release,
// and never parked in a long-lived struct where it would outlive the pool
// recycle. The same contract covers the pooled stores behind the frames
// (stream.FrameStore — any named struct type ending in "store"/"Store"):
// once a store has been handed back via put/Put, its buffers belong to the
// next user.
//
// The check is a flow-sensitive, intra-procedural abstract walk: each tracked
// local (a variable of type stream.Frame or pointer-to-*store) is live or
// released per path. Branches fork the state and re-join may-released;
// terminated branches (return) do not flow into the join — which is exactly
// what sanctions the frame-pool lending pattern in internal/wire/codec.go
// (release-and-return on the error path, hand off via the Release closure on
// success). Loop bodies are walked twice so a release of a loop-outer frame
// reports on the simulated second iteration. Function literals are walked
// independently with fresh state, since their run time is unknown — that is
// what permits the pool's `fs.release = func() { … Put(fs) }` handoff.
//
// Reading the Release field itself is never a use: `if f.Release != nil` is
// the documented guard idiom and must stay expressible after a conditional
// release.
var Framelife = &Analyzer{
	Name: "framelife",
	Doc: "require pooled frames/stores to be released at most once per path, " +
		"never used after release, and never retained in struct fields or maps",
	Run: runFramelife,
}

// isFrameType reports whether t is the transport's stream.Frame type.
func isFrameType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Frame" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/stream")
}

// isStoreType reports whether t is a pooled backing-store type (a pointer to
// a named struct following the *store naming convention).
func isStoreType(t types.Type) bool {
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	if _, isStruct := n.Underlying().(*types.Struct); !isStruct {
		return false
	}
	return strings.HasSuffix(strings.ToLower(n.Obj().Name()), "store")
}

func isPooledType(t types.Type) bool {
	return t != nil && (isFrameType(t) || isStoreType(t))
}

func runFramelife(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fl := newFramelifeChecker(pass)
			fl.trackSignature(fd)
			fl.walkBody(fd.Body)
		}
	}
	return nil
}

// framelifeChecker is the per-function walk state. state maps each tracked
// object to released=true/false; terminated marks a path that cannot reach
// the following statement (return). reported de-duplicates diagnostics when
// a loop body is walked twice.
type framelifeChecker struct {
	pass       *Pass
	info       *types.Info
	state      map[types.Object]bool
	terminated bool
	// reported de-duplicates by position: loop bodies are walked twice.
	reported map[int]bool
	deferred []types.Object
}

func newFramelifeChecker(pass *Pass) *framelifeChecker {
	return &framelifeChecker{
		pass:     pass,
		info:     pass.Pkg.Info,
		state:    make(map[types.Object]bool),
		reported: make(map[int]bool),
	}
}

func (fl *framelifeChecker) reportf(n ast.Node, format string, args ...any) {
	key := int(n.Pos())
	if fl.reported[key] {
		return
	}
	fl.reported[key] = true
	fl.pass.Reportf(n.Pos(), format, args...)
}

// trackSignature registers pooled-typed parameters and receivers as live
// tracked objects: a function that takes a frame owns its per-call lifetime.
func (fl *framelifeChecker) trackSignature(fd *ast.FuncDecl) {
	collect := func(list *ast.FieldList) {
		if list == nil {
			return
		}
		for _, field := range list.List {
			for _, name := range field.Names {
				if obj := fl.info.Defs[name]; obj != nil && isPooledType(obj.Type()) {
					fl.state[obj] = false
				}
			}
		}
	}
	collect(fd.Recv)
	collect(fd.Type.Params)
}

// walkBody walks a function body and settles the deferred releases at exit.
func (fl *framelifeChecker) walkBody(body *ast.BlockStmt) {
	fl.stmts(body.List)
	for _, obj := range fl.deferred {
		if fl.state[obj] {
			// The deferred release runs after every path; a path that already
			// released is a double release. Conservatively reported only when
			// the exit state is must/may-released.
			fl.reportf(body, "%s is released by a defer but may already be released at function exit", obj.Name())
		}
	}
}

func (fl *framelifeChecker) clone() map[types.Object]bool {
	c := make(map[types.Object]bool, len(fl.state))
	for k, v := range fl.state {
		c[k] = v
	}
	return c
}

// join merges a completed branch state into dst: released in any live branch
// means may-released after the join.
func joinState(dst, branch map[types.Object]bool) {
	for k, v := range branch {
		if v {
			dst[k] = true
		} else if _, ok := dst[k]; !ok {
			dst[k] = false
		}
	}
}

func (fl *framelifeChecker) stmts(list []ast.Stmt) {
	for _, s := range list {
		if fl.terminated {
			return
		}
		fl.stmt(s)
	}
}

func (fl *framelifeChecker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if fl.releaseOp(s.X) {
			return
		}
		fl.useScan(s.X)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			fl.useScan(r)
		}
		for i, l := range s.Lhs {
			switch lhs := l.(type) {
			case *ast.Ident:
				obj := fl.info.Defs[lhs]
				if obj == nil {
					obj = fl.info.Uses[lhs]
				}
				if obj == nil {
					continue
				}
				if isPooledType(obj.Type()) {
					// Fresh value (definition or reassignment): live again.
					fl.state[obj] = false
				}
			case *ast.SelectorExpr:
				fl.useScan(lhs.X)
				fl.checkRetention(s, i, lhs)
			case *ast.IndexExpr:
				fl.useScan(lhs.X)
				fl.useScan(lhs.Index)
				fl.checkRetention(s, i, lhs)
			default:
				fl.useScan(l)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						fl.useScan(v)
					}
					for _, name := range vs.Names {
						if obj := fl.info.Defs[name]; obj != nil && isPooledType(obj.Type()) {
							fl.state[obj] = false
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			fl.useScan(r)
		}
		fl.terminated = true
	case *ast.DeferStmt:
		// A deferred x.Release()/pool.put(x) releases at return; anything else
		// only evaluates its arguments now.
		if obj := fl.releaseTarget(s.Call); obj != nil {
			fl.deferred = append(fl.deferred, obj)
			return
		}
		for _, a := range s.Call.Args {
			fl.useScan(a)
		}
	case *ast.GoStmt:
		for _, a := range s.Call.Args {
			fl.useScan(a)
		}
	case *ast.SendStmt:
		fl.useScan(s.Chan)
		fl.useScan(s.Value)
	case *ast.IfStmt:
		if s.Init != nil {
			fl.stmt(s.Init)
		}
		fl.useScan(s.Cond)
		fl.branch2(func() { fl.stmts(s.Body.List) }, func() {
			if s.Else != nil {
				fl.stmt(s.Else)
			}
		})
	case *ast.ForStmt:
		if s.Init != nil {
			fl.stmt(s.Init)
		}
		if s.Cond != nil {
			fl.useScan(s.Cond)
		}
		fl.loopBody(func() {
			fl.stmts(s.Body.List)
			if s.Post != nil && !fl.terminated {
				fl.stmt(s.Post)
			}
		})
	case *ast.RangeStmt:
		fl.useScan(s.X)
		fl.loopBody(func() { fl.stmts(s.Body.List) })
	case *ast.SwitchStmt:
		if s.Init != nil {
			fl.stmt(s.Init)
		}
		if s.Tag != nil {
			fl.useScan(s.Tag)
		}
		fl.caseClauses(s.Body.List, nil)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			fl.stmt(s.Init)
		}
		fl.caseClauses(s.Body.List, s)
	case *ast.SelectStmt:
		var fns []func()
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				cc := cc
				fns = append(fns, func() {
					if cc.Comm != nil {
						fl.stmt(cc.Comm)
					}
					fl.stmts(cc.Body)
				})
			}
		}
		fl.branches(fns, true)
	case *ast.BlockStmt:
		fl.stmts(s.List)
	case *ast.LabeledStmt:
		fl.stmt(s.Stmt)
	}
}

// caseClauses walks each case body as an independent branch. For a type
// switch, the clause's implicit variable is tracked when pooled-typed.
func (fl *framelifeChecker) caseClauses(clauses []ast.Stmt, ts *ast.TypeSwitchStmt) {
	var fns []func()
	for _, clause := range clauses {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		fns = append(fns, func() {
			if ts != nil {
				if obj := fl.info.Implicits[cc]; obj != nil && isPooledType(obj.Type()) {
					fl.state[obj] = false
				}
			}
			for _, e := range cc.List {
				fl.useScan(e)
			}
			fl.stmts(cc.Body)
		})
	}
	fl.branches(fns, true)
}

// branch2 runs then/else as alternatives and joins the surviving states.
func (fl *framelifeChecker) branch2(then, els func()) {
	fl.branches([]func(){then, els}, false)
}

// branches forks the state for each alternative, runs them, and joins every
// non-terminated branch. withFallthroughEntry keeps the pre-state in the join
// (a switch may match no case) — branch2's else arm plays that role itself.
func (fl *framelifeChecker) branches(fns []func(), withEntry bool) {
	entry := fl.clone()
	joined := make(map[types.Object]bool)
	if withEntry {
		joinState(joined, entry)
	}
	live := 0
	for _, fn := range fns {
		fl.state = cloneState(entry)
		fl.terminated = false
		fn()
		if !fl.terminated {
			joinState(joined, fl.state)
			live++
		}
	}
	if live == 0 && !withEntry && len(fns) > 0 {
		fl.state = entry
		fl.terminated = true
		return
	}
	fl.state = joined
	fl.terminated = false
}

func cloneState(s map[types.Object]bool) map[types.Object]bool {
	c := make(map[types.Object]bool, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// loopBody walks a loop body twice: the second pass runs with the first
// pass's may-released exit state, so releasing a loop-outer frame every
// iteration is caught without real fixpoint machinery.
func (fl *framelifeChecker) loopBody(body func()) {
	entry := fl.clone()
	for i := 0; i < 2; i++ {
		fl.terminated = false
		body()
		joinState(entry, fl.state)
		fl.state = cloneState(entry)
	}
	fl.terminated = false
}

// releaseOp handles a statement-level release call, reporting a double
// release; it returns true when e was one.
func (fl *framelifeChecker) releaseOp(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	obj := fl.releaseTarget(call)
	if obj == nil {
		return false
	}
	if fl.state[obj] {
		fl.reportf(call, "%s is released twice on this path; the pool would hand the same storage to two owners", obj.Name())
	}
	fl.state[obj] = true
	return true
}

// releaseTarget resolves a call to the tracked object it releases: x.Release()
// for a tracked frame x, or pool.put(x)/Put(x) with a tracked store argument.
func (fl *framelifeChecker) releaseTarget(call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	switch sel.Sel.Name {
	case "Release":
		if base, ok := sel.X.(*ast.Ident); ok {
			if obj := fl.info.Uses[base]; obj != nil {
				if _, tracked := fl.state[obj]; tracked && isFrameType(obj.Type()) {
					return obj
				}
			}
		}
	case "put", "Put":
		for _, a := range call.Args {
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if obj := fl.info.Uses[id]; obj != nil {
					if _, tracked := fl.state[obj]; tracked && isStoreType(obj.Type()) {
						return obj
					}
				}
			}
		}
	}
	return nil
}

// checkRetention reports a tracked pooled value stored into a struct field or
// map element.
func (fl *framelifeChecker) checkRetention(s *ast.AssignStmt, i int, lhs ast.Expr) {
	if len(s.Rhs) != len(s.Lhs) {
		return
	}
	id, ok := ast.Unparen(s.Rhs[i]).(*ast.Ident)
	if !ok {
		return
	}
	obj := fl.info.Uses[id]
	if obj == nil {
		return
	}
	if _, tracked := fl.state[obj]; !tracked {
		return
	}
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		fl.reportf(s, "pooled %s must not be retained in a struct field; it outlives its release", obj.Name())
	case *ast.IndexExpr:
		if t := fl.info.TypeOf(l.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				fl.reportf(s, "pooled %s must not be retained in a map; it outlives its release", obj.Name())
			}
		}
	}
}

// useScan reports any use of a released tracked object inside e. Function
// literals are walked independently with fresh state; reading the Release
// field itself (the nil-guard idiom) and statement-level release calls are
// not uses.
func (fl *framelifeChecker) useScan(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := newFramelifeChecker(fl.pass)
			inner.reported = fl.reported
			inner.walkBody(n.Body)
			return false
		case *ast.SelectorExpr:
			if n.Sel.Name == "Release" {
				// The guard idiom: checking or calling Release is lifecycle
				// management, not payload use; the release itself is handled by
				// releaseOp.
				if base, ok := n.X.(*ast.Ident); ok {
					if obj := fl.info.Uses[base]; obj != nil {
						if _, tracked := fl.state[obj]; tracked {
							return false
						}
					}
				}
			}
		case *ast.Ident:
			obj := fl.info.Uses[n]
			if obj == nil {
				return true
			}
			if released, tracked := fl.state[obj]; tracked && released {
				fl.reportf(n, "use of %s after it was released; its storage may already belong to another frame", obj.Name())
			}
		}
		return true
	})
}
