// Command streamvet runs the repo's static-analysis suite: five analyzers
// that enforce the determinism, concurrency, and pooled-lifetime contracts
// the paper's claims rest on (see internal/analysis). It prints each
// diagnostic and exits non-zero when there is any; there is no suppression
// directive.
//
// Usage:
//
//	streamvet [-C dir] [package-dir ...]
//
// With no package arguments (or "./...") every package in the module is
// analyzed. Arguments name package directories relative to the module root
// ("internal/core", "./internal/core") and restrict the set of packages
// whose diagnostics are reported; the whole module is still loaded so
// cross-package types resolve.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"streampca/internal/analysis"
)

func main() {
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
	diags = filterDirs(diags, loader.Root(), flag.Args())
	for _, d := range diags {
		if rel, err := filepath.Rel(loader.Root(), d.File); err == nil {
			d.File = rel
		}
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "streamvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
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
