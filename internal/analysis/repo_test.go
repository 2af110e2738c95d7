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
	if len(All()) != 5 {
		t.Errorf("analyzer suite has %d analyzers, want 5", len(All()))
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
	// finding.
	for _, u := range FindUnusedDirectives(pkgs, diags) {
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
