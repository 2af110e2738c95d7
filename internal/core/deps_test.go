package core

import (
	"go/build"
	"testing"
)

// TestCoreImportsNoObs pins the layering: the estimator carries no
// telemetry and no clock. The pipeline's engine operator publishes each
// engine's state once per frame, so core's hot path holds no instrument
// branch; and the engine forgets per row by Config.Alpha (eqs. 9–14), so the
// row count is its only clock.
func TestCoreImportsNoObs(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"streampca/internal/obs", "time"} {
		for _, imp := range pkg.Imports {
			if imp == banned {
				t.Errorf("internal/core imports %s", imp)
			}
		}
	}
}
