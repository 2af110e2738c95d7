package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestParseSuppressionBudget(t *testing.T) {
	budget, err := ParseSuppressionBudget([]byte("# comment\n\nlockedsend 8\ndeterminism 6\n"))
	if err != nil {
		t.Fatal(err)
	}
	if budget["lockedsend"] != 8 || budget["determinism"] != 6 {
		t.Errorf("parsed budget = %v", budget)
	}
	for _, bad := range []string{"lockedsend", "lockedsend eight", "lockedsend -1", "lockedsend 8 extra"} {
		if _, err := ParseSuppressionBudget([]byte(bad)); err == nil {
			t.Errorf("ParseSuppressionBudget(%q): want error", bad)
		}
	}
}

func TestCheckSuppressionBudget(t *testing.T) {
	live := map[string]int{"lockedsend": 8, "determinism": 6, "framelife": 1}
	budget := map[string]int{"lockedsend": 8, "determinism": 7}
	violations := CheckSuppressionBudget(live, budget)
	// lockedsend at budget: fine; determinism under: fine; framelife has no
	// baseline line, so budget zero: violation.
	if len(violations) != 1 || !strings.Contains(violations[0], "framelife") {
		t.Errorf("violations = %v, want one framelife violation", violations)
	}
	if v := CheckSuppressionBudget(live, map[string]int{"lockedsend": 7, "determinism": 6, "framelife": 1}); len(v) != 1 ||
		!strings.Contains(v[0], "lockedsend: 8") {
		t.Errorf("violations = %v, want one lockedsend violation", v)
	}
}

// TestDirectiveBudgetOnFixture exercises counting and the unused audit on
// the directive golden fixture: it carries one well-formed lockedsend
// directive that suppresses a finding and one that (reasonless) is malformed
// and not counted.
func TestDirectiveBudgetOnFixture(t *testing.T) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "directive"), "golden.test/directive")
	if err != nil {
		t.Fatal(err)
	}
	counts := DirectiveCounts([]*Package{pkg})
	if counts["lockedsend"] != 1 {
		t.Errorf("DirectiveCounts lockedsend = %d, want 1 (malformed directives must not count)", counts["lockedsend"])
	}
	diags, err := Run([]*Package{pkg}, []*Analyzer{LockedSend})
	if err != nil {
		t.Fatal(err)
	}
	if unused := FindUnusedDirectives([]*Package{pkg}, diags); len(unused) != 0 {
		t.Errorf("unused = %v, want none: the fixture's well-formed directive suppresses a finding", unused)
	}
	// Strip the suppressions and the same directive shows up as unused.
	var bare []Diagnostic
	for _, d := range diags {
		d.Suppressed = false
		bare = append(bare, d)
	}
	unused := FindUnusedDirectives([]*Package{pkg}, bare)
	if len(unused) != 1 || unused[0].Analyzer != "lockedsend" {
		t.Errorf("unused = %v, want the fixture's lockedsend directive", unused)
	}
}
