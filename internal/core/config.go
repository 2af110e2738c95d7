// Package core implements the paper's primary contribution: a robust,
// incremental principal components analysis over high-dimensional data
// streams (Mishin, Budavári, Szalay, Ahmad — SC 2012).
//
// The estimator maintains a truncated eigensystem {Λp, Ep} of a robustly
// weighted covariance matrix. Each arriving vector x updates the system in
// O(d·(p+1)²) time via the SVD of a low-rank A matrix (eq. 1–3); robustness
// against outliers comes from Maronna-style M-scale weighting (eq. 5–8); a
// forgetting factor α turns the estimator into a sliding exponential window
// (eq. 9–14); eigensystems from independently processed sub-streams merge
// through the same low-rank machinery (eq. 15–16); and gappy observations
// are patched from the current basis with a p+q residual correction
// (§II-D).
package core

import (
	"errors"
	"fmt"

	"streampca/internal/robust"
)

// Config parameterizes a streaming PCA Engine. The zero value is not
// usable; fill Dim and Components and call Validate, or rely on NewEngine
// which validates and applies defaults.
type Config struct {
	// Dim is the dimensionality d of the observation vectors.
	Dim int

	// Components is p, the number of principal components reported to the
	// user (the truncated eigensystem size of eq. 1).
	Components int

	// Extra is q, the number of additional higher-order components
	// maintained internally for the missing-data residual correction of
	// §II-D. Zero disables the correction (the engine still runs and still
	// patches gaps, but residuals in masked bins are not re-estimated).
	Extra int

	// Alpha is the forgetting factor α ∈ (0, 1] of eqs. (12)–(14). α = 1 is
	// the classic infinite-memory estimator; α = 1 − 1/N gives an effective
	// exponential window of N observations. Default 1.
	Alpha float64

	// Delta is the M-scale breakdown parameter δ of eq. (5). Default 0.5.
	Delta float64

	// Rho is the bounded robust loss. Default: bisquare tuned for Delta
	// (robust.DefaultBisquare for δ=0.5, robust.TuneBisquare otherwise).
	// Use robust.Classic{} to recover classical (non-robust) incremental
	// PCA with the same code path.
	Rho robust.Rho

	// InitSize is the number of warm-up observations buffered before the
	// eigensystem is initialized by a small batch decomposition. The paper
	// keeps this set small "to minimize the computational requirements".
	// Default max(2·(p+q), 10).
	InitSize int

	// OutlierT is the squared standardized residual t = r²/σ² above which
	// an observation is flagged as an outlier in Update.Outlier. Default:
	// the ρ-function's rejection point (c² for bisquare) when it has one,
	// otherwise 9 (3σ).
	OutlierT float64

	// ReorthEvery forces a re-orthonormalization of the basis every that
	// many updates to bound floating-point drift. Default 1024; negative
	// disables.
	ReorthEvery int

	// RescueStreak guards against scale collapse: when that many
	// consecutive observations all receive weight 0 (which means σ² has
	// fallen far below the data's residual scale and the estimator can no
	// longer learn), σ² is reset to the median squared residual of the
	// recent rejected observations. Default max(32, 2·InitSize); negative
	// disables the rescue.
	RescueStreak int
}

// Validate checks the configuration and fills defaulted fields in place.
func (c *Config) Validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("core: Dim must be positive, got %d", c.Dim)
	}
	if c.Components <= 0 {
		return fmt.Errorf("core: Components must be positive, got %d", c.Components)
	}
	if c.Extra < 0 {
		return fmt.Errorf("core: Extra must be non-negative, got %d", c.Extra)
	}
	if c.Components+c.Extra >= c.Dim {
		return fmt.Errorf("core: Components+Extra (%d) must be < Dim (%d)", c.Components+c.Extra, c.Dim)
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("core: Alpha must lie in (0,1], got %v", c.Alpha)
	}
	if c.Delta == 0 {
		if _, classic := c.Rho.(robust.Classic); classic {
			// ρ(t)=t with δ=1 makes the M-scale the plain mean square, so
			// the whole machinery collapses to classical incremental PCA.
			c.Delta = 1
		} else {
			c.Delta = robust.DefaultDelta
		}
	}
	if c.Delta <= 0 || c.Delta > 1 {
		return fmt.Errorf("core: Delta must lie in (0,1], got %v", c.Delta)
	}
	if c.Rho == nil {
		switch {
		case c.Delta == robust.DefaultDelta:
			c.Rho = robust.DefaultBisquare()
		case c.Delta < 1:
			c.Rho = robust.NewBisquare(robust.TuneBisquare(c.Delta))
		default:
			return errors.New("core: Delta = 1 requires an explicit Rho (use robust.Classic)")
		}
	}
	if c.InitSize == 0 {
		// 4·k keeps the warm-up fit from overfitting its own buffer (which
		// collapses the initial M-scale and freezes the stream) while
		// staying "small to minimize the computational requirements".
		c.InitSize = 4 * (c.Components + c.Extra)
		if c.InitSize < 16 {
			c.InitSize = 16
		}
	}
	if c.InitSize < c.Components+c.Extra+1 {
		return fmt.Errorf("core: InitSize (%d) must exceed Components+Extra (%d)",
			c.InitSize, c.Components+c.Extra)
	}
	if c.InitSize > 1<<20 {
		return errors.New("core: InitSize unreasonably large")
	}
	if c.OutlierT == 0 {
		switch r := c.Rho.(type) {
		case robust.Bisquare:
			c.OutlierT = r.C * r.C
		default:
			c.OutlierT = 9
		}
	}
	if c.OutlierT < 0 {
		return fmt.Errorf("core: OutlierT must be non-negative, got %v", c.OutlierT)
	}
	if c.ReorthEvery == 0 {
		c.ReorthEvery = 1024
	}
	if c.RescueStreak == 0 {
		c.RescueStreak = 2 * c.InitSize
		if c.RescueStreak < 32 {
			c.RescueStreak = 32
		}
	}
	return nil
}

// WindowN returns the effective sample size N = 1/(1−α) of the exponential
// window, or 0 for the infinite-memory case α = 1. The parallel
// synchronization criterion (§II-C) declares two eigensystems independent
// once each has absorbed more than 1.5·N observations since they last met.
func (c *Config) WindowN() float64 {
	if c.Alpha >= 1 {
		return 0
	}
	return 1 / (1 - c.Alpha)
}
