// Package analysis is a stdlib-only static-analysis framework for this
// repository: a small Analyzer interface, a loader that parses and
// type-checks every repo package once (sharing one token.FileSet and one
// types.Info across all analyzers), and a runner. There is no suppression
// directive: every finding fails the build, and a false positive is fixed in
// its analyzer, with a fixture case that pins the fix.
//
// The framework exists because some properties the paper's claims rest on —
// bitwise-reproducible eigensystem updates, deadlock-free operator
// concurrency, pooled frames released once and never kept — are promises
// the code makes that no test reliably trips when broken. Each analyzer here
// keeps its place only while a contract-breaking edit exists that it reports
// and `go test ./...` passes (DESIGN, "Static guarantees"); the
// zero-allocation steady state, which AllocsPerRun tests do trip, has no
// analyzer.
//
// It deliberately depends only on go/ast, go/parser, go/token, go/types and
// go/importer — no golang.org/x/tools — preserving the repo's zero-dependency
// constraint.
package analysis

import (
	"fmt"
	"go/token"
)

// Diagnostic is one finding, positioned at file:line:col.
type Diagnostic struct {
	Analyzer string
	File     string
	Line     int
	Col      int
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is a one-paragraph description of the invariant the analyzer
	// enforces and why it matters.
	Doc string
	// Match restricts the analyzer to packages whose import path it accepts;
	// nil means every package.
	Match func(pkgPath string) bool
	// Run reports findings on one package through pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one (analyzer, package) pairing through a Run invocation.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full streamvet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism,
		LockedSend,
		GoroutineLifecycle,
		WorkspaceEscape,
		Framelife,
	}
}
