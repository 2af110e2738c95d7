package analysis

import (
	"strings"
	"testing"
)

func TestFramelifeGolden(t *testing.T) {
	runGolden(t, "framelife", "golden.test/framelife", []*Analyzer{Framelife})
}

// TestBlockingLockGolden runs lockedsend over the blocking-I/O fixture: socket
// and buffered I/O under a held mutex, the I/O-after-unlock negative, and the
// suppression path.
func TestBlockingLockGolden(t *testing.T) {
	runGolden(t, "blockinglock", "golden.test/blockinglock", []*Analyzer{LockedSend})
}

// TestFramelifeAcceptsRecvPoolLending is the cross-analyzer contract from the
// issue: the sanctioned RecvPool lending pattern in internal/wire/codec.go —
// release-and-return on the decode error path, ownership handoff through the
// frame's Release closure on success — must pass framelife with no finding
// and no framelife suppression directive anywhere in the package.
func TestFramelifeAcceptsRecvPoolLending(t *testing.T) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	var wire *Package
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, "internal/wire") {
			wire = p
			break
		}
	}
	if wire == nil {
		t.Fatal("internal/wire not found by LoadAll")
	}
	diags, err := Run([]*Package{wire}, []*Analyzer{Framelife})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Analyzer != "framelife" {
			continue
		}
		if d.Suppressed {
			t.Errorf("internal/wire needs a framelife suppression; the lending pattern must be accepted structurally: %s", d)
			continue
		}
		t.Errorf("framelife rejects internal/wire: %s", d)
	}
	// The package must also not carry dormant framelife directives: the
	// lending pattern is sanctioned by the analyzer's flow rules, not by
	// ignore comments.
	idx, _ := collectDirectives(wire)
	for _, dirs := range idx {
		for _, dir := range dirs {
			if dir.analyzer == "framelife" {
				t.Errorf("unexpected //streamvet:ignore framelife directive at line %d", dir.line)
			}
		}
	}
}
