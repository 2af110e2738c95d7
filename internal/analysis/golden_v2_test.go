package analysis

import (
	"strings"
	"testing"
)

func TestFramelifeGolden(t *testing.T) {
	runGolden(t, "framelife", "golden.test/framelife", []*Analyzer{Framelife})
}

// TestBlockingLockGolden runs lockedsend over the blocking-I/O fixture: socket
// and buffered I/O under a held mutex and the I/O-after-unlock negative.
func TestBlockingLockGolden(t *testing.T) {
	runGolden(t, "blockinglock", "golden.test/blockinglock", []*Analyzer{LockedSend})
}

// TestFramelifeAcceptsRecvPoolLending is the cross-analyzer contract for the
// frame pool's lending pattern: stream.FramePool lends its stores, whose
// Release closure puts them back, and the wire decoder in
// internal/wire/codec.go releases and returns on its error paths and hands
// ownership off through the frame's Release on success. Both packages must
// pass framelife with no finding.
func TestFramelifeAcceptsRecvPoolLending(t *testing.T) {
	loader, err := NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"internal/stream", "internal/wire"} {
		var pkg *Package
		for _, p := range pkgs {
			if strings.HasSuffix(p.Path, path) {
				pkg = p
				break
			}
		}
		if pkg == nil {
			t.Fatalf("%s not found by LoadAll", path)
		}
		diags, err := Run([]*Package{pkg}, []*Analyzer{Framelife})
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("framelife rejects %s: %s", path, d)
		}
	}
}
