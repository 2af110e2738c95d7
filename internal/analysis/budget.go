package analysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file implements the suppression budget: the count of
// //streamvet:ignore directives per analyzer is checked into
// internal/analysis/suppressions.txt, and the lint gate fails when the live
// count exceeds the baseline — so suppressions can only grow through an
// explicit, reviewable diff to the baseline file. It also implements the
// unused-directive audit: a directive that no longer silences any finding is
// dead weight that hides future findings on its line, and is reported.

// UnusedDirective identifies a //streamvet:ignore comment that suppressed
// nothing in a diagnostic set.
type UnusedDirective struct {
	File     string
	Line     int
	Analyzer string
}

// Diagnostic renders the unused directive as an unsuppressible finding.
func (u UnusedDirective) Diagnostic() Diagnostic {
	return Diagnostic{
		Analyzer: "streamvet",
		File:     u.File,
		Line:     u.Line,
		Message: fmt.Sprintf("unused //streamvet:ignore %s directive: no %s finding on this or the next line; delete it",
			u.Analyzer, u.Analyzer),
	}
}

// FindUnusedDirectives returns every well-formed directive in pkgs that does
// not suppress at least one diagnostic in diags, which must be the complete
// diagnostic set of the analyzers the directives name.
func FindUnusedDirectives(pkgs []*Package, diags []Diagnostic) []UnusedDirective {
	type key struct {
		file     string
		line     int
		analyzer string
	}
	used := make(map[key]bool)
	for _, d := range diags {
		if !d.Suppressed {
			continue
		}
		// Mark both lines a directive could sit on for this diagnostic; the
		// directive index below resolves which one exists.
		used[key{d.File, d.Line, d.Analyzer}] = true
		used[key{d.File, d.Line - 1, d.Analyzer}] = true
	}
	var unused []UnusedDirective
	for _, pkg := range pkgs {
		idx, _ := collectDirectives(pkg)
		for file, dirs := range idx {
			for _, dir := range dirs {
				if !used[key{file, dir.line, dir.analyzer}] {
					unused = append(unused, UnusedDirective{File: file, Line: dir.line, Analyzer: dir.analyzer})
				}
			}
		}
	}
	sort.Slice(unused, func(i, j int) bool {
		if unused[i].File != unused[j].File {
			return unused[i].File < unused[j].File
		}
		return unused[i].Line < unused[j].Line
	})
	return unused
}

// DirectiveCounts tallies well-formed //streamvet:ignore directives per
// analyzer name across pkgs.
func DirectiveCounts(pkgs []*Package) map[string]int {
	counts := make(map[string]int)
	for _, pkg := range pkgs {
		idx, _ := collectDirectives(pkg)
		for _, dirs := range idx {
			for _, dir := range dirs {
				counts[dir.analyzer]++
			}
		}
	}
	return counts
}

// FormatDirectiveCounts renders counts one "analyzer count" pair per line,
// sorted — the same shape the baseline file uses.
func FormatDirectiveCounts(counts map[string]int) string {
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %d\n", name, counts[name])
	}
	return b.String()
}

// ParseSuppressionBudget reads a baseline file: one "analyzer count" pair
// per line, #-comments and blank lines ignored.
func ParseSuppressionBudget(data []byte) (map[string]int, error) {
	budget := make(map[string]int)
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("analysis: suppression budget line %d: want \"analyzer count\", got %q", i+1, line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("analysis: suppression budget line %d: bad count %q", i+1, fields[1])
		}
		budget[fields[0]] = n
	}
	return budget, nil
}

// CheckSuppressionBudget compares live directive counts against the
// baseline, returning one violation message per analyzer over budget. An
// analyzer absent from the baseline has budget zero.
func CheckSuppressionBudget(live, budget map[string]int) []string {
	names := make([]string, 0, len(live))
	for name := range live {
		names = append(names, name)
	}
	sort.Strings(names)
	var violations []string
	for _, name := range names {
		if live[name] > budget[name] {
			violations = append(violations, fmt.Sprintf(
				"%s: %d //streamvet:ignore directives, budget is %d (grow internal/analysis/suppressions.txt explicitly if this is intended)",
				name, live[name], budget[name]))
		}
	}
	return violations
}
