package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockedSend flags channel operations and other blocking calls made while a
// sync.Mutex or sync.RWMutex is held — the classic stream-engine deadlock: a
// operator goroutine blocks on a full queue while holding the lock every other
// goroutine needs to drain it. The wire layer has the same shape under
// backpressure: a socket Write blocks on a full TCP window while holding the
// lock the receive path needs, so neither side makes progress and the 1.5·N
// sync evidence silently goes stale. Blocking calls are the synchronization
// waits (WaitGroup.Wait, Cond.Wait, time.Sleep) and the I/O surface: net
// dials, reads, writes and accepts, and the io/bufio transfers on top of them.
//
// The tracker is a per-function, statement-order approximation: a lock is
// considered held from the x.Lock() statement until a matching x.Unlock() on
// the same receiver expression; a deferred Unlock holds until the end of the
// function; an if body that ends in return leaves the held set as it was
// before the if. Function literals are analyzed independently with no locks
// held, since their call time is unknown.
var LockedSend = &Analyzer{
	Name: "lockedsend",
	Doc:  "forbid channel sends/receives, sync waits and blocking I/O while a sync.Mutex/RWMutex is held",
	Run:  runLockedSend,
}

var lockMethods = map[string]bool{
	"(*sync.Mutex).Lock":    true,
	"(*sync.RWMutex).Lock":  true,
	"(*sync.RWMutex).RLock": true,
}

var unlockMethods = map[string]bool{
	"(*sync.Mutex).Unlock":    true,
	"(*sync.RWMutex).Unlock":  true,
	"(*sync.RWMutex).RUnlock": true,
}

// blockingFuncs maps the full name of a known blocking function or method to
// the name reported for it.
var blockingFuncs = map[string]string{
	"(*sync.WaitGroup).Wait": "sync.WaitGroup.Wait",
	"(*sync.Cond).Wait":      "sync.Cond.Wait",
	"time.Sleep":             "time.Sleep",
	"io.ReadFull":            "io.ReadFull",
	"io.ReadAll":             "io.ReadAll",
	"io.Copy":                "io.Copy",
	"io.CopyN":               "io.CopyN",
	"io.CopyBuffer":          "io.CopyBuffer",
	"net.Dial":               "net.Dial",
	"net.DialTCP":            "net.DialTCP",
	"net.DialUDP":            "net.DialUDP",
	"net.Listen":             "net.Listen",
	"net.DialTimeout":        "net.DialTimeout",
}

// ioBlockingMethods are method names that block when the receiver type is
// declared in net, io or bufio.
var ioBlockingMethods = map[string]bool{
	"Read": true, "Write": true, "ReadFrom": true, "WriteTo": true,
	"Accept": true, "AcceptTCP": true, "Flush": true,
	"ReadByte": true, "ReadFull": true, "WriteString": true,
}

func runLockedSend(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					(&lockedSendChecker{pass: pass}).stmts(n.Body.List)
				}
			case *ast.FuncLit:
				(&lockedSendChecker{pass: pass}).stmts(n.Body.List)
			}
			return true
		})
	}
	return nil
}

type lockedSendChecker struct {
	pass *Pass
	held []string // receiver expressions of currently held locks
}

func (ls *lockedSendChecker) holding() string {
	if len(ls.held) == 0 {
		return ""
	}
	return ls.held[len(ls.held)-1]
}

func (ls *lockedSendChecker) acquire(key string) { ls.held = append(ls.held, key) }

func (ls *lockedSendChecker) release(key string) {
	for i := len(ls.held) - 1; i >= 0; i-- {
		if ls.held[i] == key {
			ls.held = append(ls.held[:i], ls.held[i+1:]...)
			return
		}
	}
}

// stmts walks a statement list in order, tracking the held-lock set.
func (ls *lockedSendChecker) stmts(list []ast.Stmt) {
	for _, s := range list {
		ls.stmt(s)
	}
}

func (ls *lockedSendChecker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, kind := ls.lockOp(call); kind == "lock" {
				ls.acquire(key)
				return
			} else if kind == "unlock" {
				ls.release(key)
				return
			}
		}
		ls.expr(s.X)
	case *ast.DeferStmt:
		// A deferred Unlock releases only at return: the lock stays held for
		// the remainder of the walk, which is exactly the semantics wanted.
		// Other deferred calls run outside the traced order; check their
		// argument expressions only.
		for _, a := range s.Call.Args {
			ls.expr(a)
		}
	case *ast.SendStmt:
		if m := ls.holding(); m != "" {
			ls.pass.Reportf(s.Pos(), "channel send while %s is locked can deadlock the stream engine", m)
		}
		ls.expr(s.Chan)
		ls.expr(s.Value)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ls.expr(e)
		}
		for _, e := range s.Lhs {
			ls.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						ls.expr(v)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ls.expr(e)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			ls.stmt(s.Init)
		}
		ls.expr(s.Cond)
		// A body that ends in return hands control back to the caller, so an
		// Unlock inside it (`if closed { mu.Unlock(); return }`) does not
		// release the lock for the statements after the if.
		held := append([]string(nil), ls.held...)
		ls.stmts(s.Body.List)
		if n := len(s.Body.List); n > 0 {
			if _, ok := s.Body.List[n-1].(*ast.ReturnStmt); ok {
				ls.held = held
			}
		}
		if s.Else != nil {
			ls.stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ls.stmt(s.Init)
		}
		if s.Cond != nil {
			ls.expr(s.Cond)
		}
		ls.stmts(s.Body.List)
		if s.Post != nil {
			ls.stmt(s.Post)
		}
	case *ast.RangeStmt:
		if t := ls.pass.Pkg.Info.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				if m := ls.holding(); m != "" {
					ls.pass.Reportf(s.Pos(), "range over channel while %s is locked can deadlock the stream engine", m)
				}
			}
		}
		ls.expr(s.X)
		ls.stmts(s.Body.List)
	case *ast.SelectStmt:
		hasDefault := false
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if m := ls.holding(); m != "" && !hasDefault {
			ls.pass.Reportf(s.Pos(), "blocking select while %s is locked can deadlock the stream engine", m)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok {
				ls.stmts(cc.Body)
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls.stmt(s.Init)
		}
		if s.Tag != nil {
			ls.expr(s.Tag)
		}
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				ls.stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, clause := range s.Body.List {
			if cc, ok := clause.(*ast.CaseClause); ok {
				ls.stmts(cc.Body)
			}
		}
	case *ast.BlockStmt:
		ls.stmts(s.List)
	case *ast.LabeledStmt:
		ls.stmt(s.Stmt)
	case *ast.GoStmt:
		// The spawned body runs on another goroutine; only the argument
		// expressions evaluate here.
		for _, a := range s.Call.Args {
			ls.expr(a)
		}
	}
}

// expr scans an expression tree for channel receives and blocking calls,
// without descending into function literals (their bodies are checked
// independently).
func (ls *lockedSendChecker) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if m := ls.holding(); m != "" {
					ls.pass.Reportf(n.Pos(), "channel receive while %s is locked can deadlock the stream engine", m)
				}
			}
		case *ast.CallExpr:
			if name := ls.blockingCall(n); name != "" {
				if m := ls.holding(); m != "" {
					ls.pass.Reportf(n.Pos(), "blocking call %s while %s is locked can deadlock the stream engine", name, m)
				}
			}
		}
		return true
	})
}

// lockOp classifies a call as a lock or unlock on a sync mutex, returning
// the receiver expression as the lock identity.
func (ls *lockedSendChecker) lockOp(call *ast.CallExpr) (key, kind string) {
	fn := calledFunc(ls.pass, call)
	if fn == nil {
		return "", ""
	}
	recv := types.ExprString(ast.Unparen(call.Fun).(*ast.SelectorExpr).X)
	switch full := fn.FullName(); {
	case lockMethods[full]:
		return recv, "lock"
	case unlockMethods[full]:
		return recv, "unlock"
	}
	return "", ""
}

// blockingCall names the blocking operation a call performs, or returns "".
// It is either a known function from blockingFuncs, or a Read/Write/Accept-
// style method whose receiver type is declared in net, io or bufio (a
// *net.TCPConn, an io.Reader interface value, a *bufio.Writer over a socket).
// Methods so named on local types are not assumed to block: the wire layer
// reaches sockets through net/io/bufio types, and those packages declare
// every method this pass cares about.
func (ls *lockedSendChecker) blockingCall(call *ast.CallExpr) string {
	fn := calledFunc(ls.pass, call)
	if fn == nil {
		return ""
	}
	if name, ok := blockingFuncs[fn.FullName()]; ok {
		return name
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !ioBlockingMethods[fn.Name()] || fn.Pkg() == nil {
		return ""
	}
	switch path := fn.Pkg().Path(); path {
	case "net", "io", "bufio":
		return path + "." + fn.Name()
	}
	return ""
}

// calledFunc resolves the *types.Func a selector-style call invokes, or nil.
func calledFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil
	}
	return fn
}
