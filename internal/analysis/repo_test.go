package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoClean runs the full analyzer suite over the real repository tree
// and requires zero unsuppressed diagnostics — the same gate `make lint`
// enforces — plus a reason on every suppression, no dead directives, and
// directive counts within the committed suppression budget.
func TestRepoClean(t *testing.T) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 5 {
		t.Fatalf("loaded only %d packages; loader is missing the tree", len(pkgs))
	}
	var cmdPkgs int
	for _, p := range pkgs {
		if strings.Contains(p.Path, "/cmd/") {
			cmdPkgs++
		}
	}
	if cmdPkgs == 0 {
		t.Error("no cmd/ packages loaded; the gate must cover the commands too")
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	if len(All()) != 6 {
		t.Errorf("analyzer suite has %d analyzers, want 6", len(All()))
	}
	for _, d := range Unsuppressed(diags) {
		t.Errorf("unsuppressed: %s", d)
	}
	for _, d := range diags {
		if d.Suppressed && d.Reason == "" {
			t.Errorf("suppression without a reason: %s", d)
		}
	}
	// Unused-directive strictness: every directive must silence a live
	// finding. noalloc directives are audited in TestRepoEscapeClean instead,
	// since several of them target compiler-level escape findings the AST
	// pass cannot produce.
	for _, u := range FindUnusedDirectives(pkgs, diags) {
		if u.Analyzer == "noalloc" {
			continue
		}
		t.Errorf("%s", u.Diagnostic())
	}
	// Suppression budget: live directive counts must not exceed the
	// committed baseline.
	data, err := os.ReadFile(filepath.Join(moduleRoot, "internal", "analysis", "suppressions.txt"))
	if err != nil {
		t.Fatalf("suppression budget baseline missing: %v", err)
	}
	baseline, err := ParseSuppressionBudget(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range CheckSuppressionBudget(DirectiveCounts(pkgs), baseline) {
		t.Errorf("suppression budget exceeded: %s", v)
	}
}

// TestRepoEscapeClean cross-checks every //streampca:noalloc annotation in
// the tree against the gc compiler's escape analysis. It rebuilds the module
// with -gcflags=-m, so it is skipped under -short.
func TestRepoEscapeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("escape cross-check rebuilds the module; skipped with -short")
	}
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	spans := noallocSpans(pkgs)
	if len(spans) == 0 {
		t.Fatal("no //streampca:noalloc functions found; hot-path annotations are missing")
	}
	diags, err := EscapeCheck(loader.Root(), pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Unsuppressed(diags) {
		t.Errorf("escape: %s", d)
	}
	// With the escape findings in hand, the noalloc directives skipped by
	// TestRepoClean's audit can be judged: a directive silencing neither an
	// AST finding nor a compiler escape is dead.
	astDiags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range FindUnusedDirectives(pkgs, append(astDiags, diags...)) {
		t.Errorf("%s", u.Diagnostic())
	}
}
