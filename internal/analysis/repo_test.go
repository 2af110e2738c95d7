package analysis

import (
	"strings"
	"testing"
)

// TestRepoClean runs the full analyzer suite over the real repository tree
// and requires zero diagnostics — the same gate `make lint` enforces. It
// also counts the cmd/ packages loaded: `make lint` passes ./..., which
// keeps every finding, so this count is what fails if the loader ever stops
// seeing the commands.
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
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}
