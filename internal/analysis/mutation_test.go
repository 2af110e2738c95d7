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
// alone, on the edited line; a row may carry a second edit of the same file
// that the first needs (an import, a field). A row whose old snippet no
// longer occurs exactly once fails, so the table moves with the code it
// mutates. Every analyzer needs two rows; DESIGN ("Static guarantees")
// records which of them `go test ./...` also catches.
func TestAnalyzersCatchLiveMutations(t *testing.T) {
	rows := []struct {
		name     string
		analyzer string
		pkg      string // package directory relative to the module root
		file     string
		old, new string
		also     [2]string // an optional second old→new edit of file
		at       string    // the substring of new whose line must be reported
		want     string    // a substring of the expected message
	}{
		{
			name: "null directions drawn from global rand", analyzer: "determinism",
			pkg: "internal/core", file: "engine.go",
			old:  "\tif null {\n\t\tcols := basis.T()\n",
			new:  "\tif null {\n\t\tfor j := range k {\n\t\t\tif s[j] == 0 {\n\t\t\t\trow := basis.Row(j)\n\t\t\t\tfor i := range row {\n\t\t\t\t\trow[i] = rand.NormFloat64()\n\t\t\t\t}\n\t\t\t}\n\t\t}\n\t\tcols := basis.T()\n",
			also: [2]string{"import (\n", "import (\n\t\"math/rand/v2\"\n"},
			at:   "rand.NormFloat64", want: "uses the shared global source",
		},
		{
			name: "peers merged in map order by MergeMany", analyzer: "determinism",
			pkg: "internal/core", file: "merge.go",
			old: "\tfor _, s := range systems[1:] {\n",
			new: "\tpeers := make(map[int]*Eigensystem, len(systems))\n\tfor i, s := range systems[1:] {\n\t\tpeers[i] = s\n\t}\n\tfor _, s := range peers {\n",
			at:  "for _, s := range peers", want: "map iteration order is nondeterministic",
		},
		{
			name: "workspace slice kept by Engine.Ready", analyzer: "workspace-escape",
			pkg: "internal/core", file: "engine.go",
			old: "func (en *Engine) Ready() bool { return en.ready }",
			new: "func (en *Engine) Ready() bool {\n\ten.binSum = en.ws.xPatch\n\treturn en.ready\n}",
			at:  "en.binSum =", want: "must not be stored into a struct field",
		},
		{
			name: "warm-up fill returned in the patch scratch", analyzer: "workspace-escape",
			pkg: "internal/core", file: "gaps.go",
			old: "\txp := make([]float64, d)\n\tfor i := 0; i < d; i++ {\n\t\tif mask[i] {\n\t\t\txp[i] = x[i]\n\t\t} else if en.binCount[i] > 0 {\n\t\t\txp[i] = en.binSum[i] / en.binCount[i]\n\t\t}\n\t}\n\treturn xp\n",
			new: "\txp := en.ws.xPatch\n\tfor i := 0; i < d; i++ {\n\t\tif mask[i] {\n\t\t\txp[i] = x[i]\n\t\t} else if en.binCount[i] > 0 {\n\t\t\txp[i] = en.binSum[i] / en.binCount[i]\n\t\t}\n\t}\n\treturn xp\n",
			at:  "return xp", want: "must not be returned",
		},
		{
			name: "lent store kept by FramePool.Get", analyzer: "workspace-escape",
			pkg: "internal/stream", file: "store.go",
			old:  "\treturn fp.pool.Get().(*FrameStore)\n",
			new:  "\tfp.last = fp.pool.Get().(*FrameStore)\n\treturn fp.last\n",
			also: [2]string{"\tpool      sync.Pool\n}", "\tpool      sync.Pool\n\tlast      *FrameStore\n}"},
			at:   "fp.last =", want: "must not be stored into a struct field",
		},
		{
			name: "unbounded goroutine in Edge.Close", analyzer: "goroutine-lifecycle",
			pkg: "internal/wire", file: "edge.go",
			old: "\te.closed = true\n",
			new: "\te.closed = true\n\tgo func() {\n\t\tfor {\n\t\t}\n\t}()\n",
			at:  "go func", want: "goroutine is not tied to",
		},
		{
			name: "engine restart sleeps past cancellation", analyzer: "goroutine-lifecycle",
			pkg: "internal/pipeline", file: "pipeline.go",
			old: "\t\t\tgo func() {\n\t\t\t\tt := time.NewTimer(chaos.RestartAfter)\n\t\t\t\tdefer t.Stop()\n\t\t\t\tselect {\n\t\t\t\tcase <-t.C:\n\t\t\t\tcase <-runCtx.Done():\n\t\t\t\t\treturn\n\t\t\t\t}\n",
			new: "\t\t\tgo func() {\n\t\t\t\ttime.Sleep(chaos.RestartAfter)\n",
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
			name: "frame counted after its release in Edge.markSent", analyzer: "framelife",
			pkg: "internal/wire", file: "edge.go",
			old: "\t\te.framesOut.Add(1)\n\t\te.tuplesOut.Add(int64(len(f.Tuples)))\n\t\tif f.Release != nil {\n\t\t\tf.Release()\n\t\t}\n",
			new: "\t\tif f.Release != nil {\n\t\t\tf.Release()\n\t\t}\n\t\te.framesOut.Add(1)\n\t\te.tuplesOut.Add(int64(len(f.Tuples)))\n",
			at:  "e.tuplesOut", want: "use of f after it was released",
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
	rowsPer := make(map[string]int)
	for _, r := range rows {
		rowsPer[r.analyzer]++
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
					if r.also[0] != "" {
						if n := strings.Count(text, r.also[0]); n != 1 {
							t.Fatalf("%s/%s: also snippet occurs %d times, want 1; update the row", r.pkg, r.file, n)
						}
						text = strings.Replace(text, r.also[0], r.also[1], 1)
					}
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
			for _, d := range diags {
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
		if rowsPer[a.Name] < 2 {
			t.Errorf("analyzer %s has %d mutation rows, want at least 2", a.Name, rowsPer[a.Name])
		}
	}
}
