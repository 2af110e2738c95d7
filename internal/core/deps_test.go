package core

import (
	"go/build"
	"testing"
)

// TestCoreImportsNoObs pins the layering: the estimator carries no
// telemetry. The pipeline's engine operator publishes each engine's state
// once per frame, so core's hot path holds no instrument branch.
func TestCoreImportsNoObs(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range pkg.Imports {
		if imp == "streampca/internal/obs" {
			t.Fatalf("internal/core imports %s", imp)
		}
	}
}
