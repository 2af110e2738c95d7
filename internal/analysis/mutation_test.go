package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAnalyzersCatchLiveMutations shows that every analyzer in the suite
// guards the code as it is today, not just its fixture. Each row copies one
// real package's non-test files, applies one textual edit that breaks the
// analyzer's contract, and requires the full suite to report that analyzer
// alone, on the edited line. A row whose old snippet no longer occurs exactly
// once fails, so the table moves with the code it mutates.
func TestAnalyzersCatchLiveMutations(t *testing.T) {
	rows := []struct {
		name     string
		analyzer string
		pkg      string // package directory relative to the module root
		file     string
		old, new string
		at       string // the substring of new whose line must be reported
		want     string // a substring of the expected message
	}{
		{
			name: "make in CenterProject", analyzer: "noalloc",
			pkg: "internal/mat", file: "fused.go",
			old: "panic(\"mat: CenterProject length mismatch\")\n\t}\n",
			new: "panic(\"mat: CenterProject length mismatch\")\n\t}\n\t_ = make([]float64, d)\n",
			at:  "_ = make", want: "call to make allocates",
		},
		{
			name: "map range in Engine.Ready", analyzer: "determinism",
			pkg: "internal/core", file: "engine.go",
			old: "func (en *Engine) Ready() bool { return en.ready }",
			new: "func (en *Engine) Ready() bool {\n\tfor range map[int]bool{} {\n\t}\n\treturn en.ready\n}",
			at:  "for range", want: "map iteration order is nondeterministic",
		},
		{
			name: "workspace slice kept by Engine.Ready", analyzer: "workspace-escape",
			pkg: "internal/core", file: "engine.go",
			old: "func (en *Engine) Ready() bool { return en.ready }",
			new: "func (en *Engine) Ready() bool {\n\ten.binSum = en.ws.xPatch\n\treturn en.ready\n}",
			at:  "en.binSum =", want: "must not be stored into a struct field",
		},
		{
			name: "unbounded goroutine in Edge.Close", analyzer: "goroutine-lifecycle",
			pkg: "internal/wire", file: "edge.go",
			old: "\te.closed = true\n",
			new: "\te.closed = true\n\tgo func() {\n\t\tfor {\n\t\t}\n\t}()\n",
			at:  "go func", want: "goroutine is not tied to",
		},
		{
			name: "frame used after release in observeFrame", analyzer: "framelife",
			pkg: "internal/pipeline", file: "operator.go",
			old: "\tp.recordE2E(f)\n\tif f.Release != nil {\n\t\tf.Release()\n\t}\n",
			new: "\tif f.Release != nil {\n\t\tf.Release()\n\t}\n\tp.recordE2E(f)\n",
			at:  "p.recordE2E(f)", want: "use of f after it was released",
		},
		{
			name: "channel send in Edge.Stats", analyzer: "lockedsend",
			pkg: "internal/wire", file: "edge.go",
			old: "\tgen := e.gen\n\tpeerEpoch",
			new: "\tgen := e.gen\n\tch := make(chan int, 1)\n\tch <- 1\n\tpeerEpoch",
			at:  "ch <- 1", want: "channel send while e.mu is locked",
		},
		{
			name: "socket write in Edge.Stats", analyzer: "lockedsend",
			pkg: "internal/wire", file: "edge.go",
			old: "\tgen := e.gen\n\tpeerEpoch",
			new: "\tgen := e.gen\n\tif e.conn != nil {\n\t\te.conn.Write(nil)\n\t}\n\tpeerEpoch",
			at:  "e.conn.Write", want: "blocking call net.Write while e.mu is locked",
		},
		{
			name: "channel send in Edge.Close after its early return", analyzer: "lockedsend",
			pkg: "internal/wire", file: "edge.go",
			old: "\te.closed = true\n",
			new: "\te.closed = true\n\tch := make(chan int, 1)\n\tch <- 1\n",
			at:  "ch <- 1", want: "channel send while e.mu is locked",
		},
	}
	covered := make(map[string]bool)
	for _, r := range rows {
		covered[r.analyzer] = true
		t.Run(r.name, func(t *testing.T) {
			src := filepath.Join(moduleRoot, r.pkg)
			dst := t.TempDir()
			ents, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			line := 0
			for _, e := range ents {
				name := e.Name()
				if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				data, err := os.ReadFile(filepath.Join(src, name))
				if err != nil {
					t.Fatal(err)
				}
				text := string(data)
				if name == r.file {
					if n := strings.Count(text, r.old); n != 1 {
						t.Fatalf("%s/%s: old snippet occurs %d times, want 1; update the row", r.pkg, r.file, n)
					}
					i := strings.Index(text, r.old)
					line = strings.Count(text[:i]+r.new[:strings.Index(r.new, r.at)], "\n") + 1
					text = strings.Replace(text, r.old, r.new, 1)
				}
				if err := os.WriteFile(filepath.Join(dst, name), []byte(text), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if line == 0 {
				t.Fatalf("%s/%s not found", r.pkg, r.file)
			}
			loader, err := NewLoader(moduleRoot)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := loader.LoadDir(dst, loader.ModulePath()+"/"+r.pkg)
			if err != nil {
				t.Fatal(err)
			}
			diags, err := Run([]*Package{pkg}, All())
			if err != nil {
				t.Fatal(err)
			}
			found := false
			for _, d := range Unsuppressed(diags) {
				if d.Analyzer != r.analyzer || filepath.Base(d.File) != r.file || d.Line != line {
					t.Errorf("unexpected diagnostic: %s", d)
					continue
				}
				if !strings.Contains(d.Message, r.want) {
					t.Errorf("%s, want message containing %q", d, r.want)
				}
				found = true
			}
			if !found {
				t.Errorf("%s did not report %s:%d", r.analyzer, r.file, line)
			}
		})
	}
	for _, a := range All() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no mutation row", a.Name)
		}
	}
}
