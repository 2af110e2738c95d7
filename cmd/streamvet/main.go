// Command streamvet runs the repo's static-analysis suite: five analyzers
// that enforce the determinism, concurrency, and pooled-lifetime contracts
// the paper's claims rest on (see internal/analysis). It exits non-zero when
// any unsuppressed diagnostic is found.
//
// Usage:
//
//	streamvet [-json] [-budget file] [-C dir] [package-dir ...]
//
// With no package arguments (or "./...") every package in the module is
// analyzed. Arguments name package directories relative to the module root
// ("internal/core", "./internal/core") and restrict the set of packages
// whose diagnostics are reported; the whole module is still loaded so
// cross-package types resolve.
//
// -json emits the diagnostics as a JSON array — including suppressed ones,
// flagged with their //streamvet:ignore reason — for machine consumption
// (see `make lint-json`). The exit status considers unsuppressed
// diagnostics only.
//
// -budget FILE prints the live //streamvet:ignore count per analyzer and
// fails when any count exceeds the checked-in baseline (see
// internal/analysis/suppressions.txt): suppressions only grow through an
// explicit diff.
//
// Unused //streamvet:ignore directives are reported as findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"streampca/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON (suppressed included, flagged)")
	budget := flag.String("budget", "", "suppression-budget baseline file; print live counts and fail when any exceeds it")
	chdir := flag.String("C", "", "module root directory (default: nearest go.mod from the working directory)")
	flag.Parse()

	root := *chdir
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fatal(err)
		}
	}

	loader, err := analysis.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		fatal(err)
	}

	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		fatal(err)
	}
	// Audit directives against the full (pre-filter) diagnostic set.
	for _, u := range analysis.FindUnusedDirectives(pkgs, diags) {
		diags = append(diags, u.Diagnostic())
	}
	budgetFailed := false
	if *budget != "" {
		data, err := os.ReadFile(*budget)
		if err != nil {
			fatal(err)
		}
		baseline, err := analysis.ParseSuppressionBudget(data)
		if err != nil {
			fatal(err)
		}
		live := analysis.DirectiveCounts(pkgs)
		fmt.Fprintf(os.Stderr, "streamvet: suppressions in use:\n%s", indent(analysis.FormatDirectiveCounts(live)))
		for _, v := range analysis.CheckSuppressionBudget(live, baseline) {
			fmt.Fprintf(os.Stderr, "streamvet: suppression budget exceeded: %s\n", v)
			budgetFailed = true
		}
	}
	diags = filterDirs(diags, loader.Root(), flag.Args())

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fatal(err)
		}
	}
	failing := analysis.Unsuppressed(diags)
	if !*jsonOut {
		for _, d := range failing {
			if rel, err := filepath.Rel(loader.Root(), d.File); err == nil {
				d.File = rel
			}
			fmt.Println(d)
		}
	}
	if len(failing) > 0 {
		fmt.Fprintf(os.Stderr, "streamvet: %d unsuppressed finding(s)\n", len(failing))
		os.Exit(1)
	}
	if budgetFailed {
		os.Exit(1)
	}
}

func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		b.WriteString("  " + line + "\n")
	}
	return b.String()
}

// filterDirs restricts diagnostics to the requested package directories;
// no arguments, or any "./..."-style pattern, keeps everything.
func filterDirs(diags []analysis.Diagnostic, root string, args []string) []analysis.Diagnostic {
	var prefixes []string
	for _, a := range args {
		if a == "." || strings.HasSuffix(a, "...") {
			return diags
		}
		prefixes = append(prefixes, filepath.Join(root, filepath.Clean(a))+string(filepath.Separator))
	}
	if len(prefixes) == 0 {
		return diags
	}
	var out []analysis.Diagnostic
	for _, d := range diags {
		for _, p := range prefixes {
			if strings.HasPrefix(d.File, p) {
				out = append(out, d)
				break
			}
		}
	}
	return out
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("streamvet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "streamvet: %v\n", err)
	os.Exit(2)
}
