package analysis

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// moduleRoot is the repository root relative to this package's directory,
// where the tests run.
const moduleRoot = "../.."

// collectWants parses the fixture's `// want "substring"` comments into a
// (file, line) → expected-substring index.
func collectWants(t *testing.T, pkg *Package) map[string][]string {
	t.Helper()
	wants := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				substr, err := strconv.Unquote(strings.TrimSpace(rest))
				if err != nil {
					t.Fatalf("%s: malformed want comment %q: %v",
						pkg.Fset.Position(c.Pos()), c.Text, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				wants[key] = append(wants[key], substr)
			}
		}
	}
	return wants
}

// runGolden loads the fixture package in testdata/src/<dir> under the given
// import path, runs the analyzers over it, and requires the diagnostics to
// match the fixture's want comments exactly — every diagnostic wanted, every
// want diagnosed. Matching is by file, line, and message substring.
func runGolden(t *testing.T, dir, importPath string, analyzers []*Analyzer) {
	t.Helper()
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		matched := -1
		for i, w := range wants[key] {
			if strings.Contains(d.Message, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[key] = append(wants[key][:matched], wants[key][matched+1:]...)
	}
	for key, rest := range wants {
		for _, w := range rest {
			t.Errorf("%s: want %q, got no diagnostic", key, w)
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, "determinism", "golden.test/internal/core", []*Analyzer{Determinism})
}

// TestDeterminismMatch checks the package gate: the same fixture loaded
// outside the numeric-core import paths must produce no diagnostics.
func TestDeterminismMatch(t *testing.T) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "determinism"), "golden.test/other")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{Determinism})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("determinism fired outside its matched packages: %s", d)
	}
}

func TestLockedSendGolden(t *testing.T) {
	runGolden(t, "lockedsend", "golden.test/lockedsend", []*Analyzer{LockedSend})
}

func TestGoroutineLifecycleGolden(t *testing.T) {
	runGolden(t, "goroutine", "golden.test/internal/stream", []*Analyzer{GoroutineLifecycle})
}

func TestWorkspaceEscapeGolden(t *testing.T) {
	runGolden(t, "wsescape", "golden.test/wsescape", []*Analyzer{WorkspaceEscape})
}
