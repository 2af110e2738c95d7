// Package robust implements the bounded ρ-functions and M-scale estimation
// from Maronna (2005), "Principal components and orthogonal regression based
// on robust scales", which the paper's robust streaming PCA builds on.
//
// Conventions follow the paper: ρ acts on the *squared* standardized
// residual t = r²/σ², is bounded with ρ(0)=0 and ρ(∞)=1, W(t) = ρ′(t) is
// the weight applied to observations in the weighted mean/covariance
// (eq. 6–7), and W*(t) = ρ(t)/t drives the σ² fixed-point iteration
// (eq. 8). The breakdown parameter δ ∈ (0, 1) is the target value of the
// average ρ (eq. 5); larger δ tolerates more contamination.
package robust

// Rho is a bounded robust loss on the squared standardized residual.
// Implementations must satisfy Rho(0)=0, Rho(t)→1 as t→∞, Rho
// non-decreasing, and W = dρ/dt.
type Rho interface {
	// Rho evaluates ρ(t) for t = r²/σ² ≥ 0.
	Rho(t float64) float64
	// W evaluates the observation weight W(t) = ρ′(t) ≥ 0.
	W(t float64) float64
	// WStar evaluates W*(t) = ρ(t)/t, continuously extended at t=0.
	WStar(t float64) float64
	// Name identifies the family for logs and experiment output.
	Name() string
}

// Bisquare is Tukey's biweight in squared-residual form:
//
//	ρ(t) = 1 − (1 − t/c²)³  for t ≤ c²,  1 otherwise,
//
// so observations with r²/σ² beyond c² get weight exactly 0 — the property
// that makes the streaming estimator immune to gross outliers. The tuning
// constant c trades efficiency against robustness; see TuneBisquare.
type Bisquare struct {
	// C is the cutoff in standardized-residual units (not squared).
	C float64
}

// NewBisquare returns a Bisquare with cutoff c; it panics if c <= 0.
func NewBisquare(c float64) Bisquare {
	if c <= 0 {
		panic("robust: bisquare cutoff must be positive")
	}
	return Bisquare{C: c}
}

// Rho implements Rho.
func (b Bisquare) Rho(t float64) float64 {
	c2 := b.C * b.C
	if t >= c2 {
		return 1
	}
	if t <= 0 {
		return 0
	}
	u := 1 - t/c2
	return 1 - u*u*u
}

// W implements Rho; W(t) = (3/c²)(1 − t/c²)² inside the cutoff, 0 outside.
func (b Bisquare) W(t float64) float64 {
	c2 := b.C * b.C
	if t >= c2 || t < 0 {
		return 0
	}
	u := 1 - t/c2
	return 3 / c2 * u * u
}

// WStar implements Rho; the limit at t→0 is ρ′(0) = 3/c².
func (b Bisquare) WStar(t float64) float64 {
	if t <= 0 {
		return 3 / (b.C * b.C)
	}
	return b.Rho(t) / t
}

// Name implements Rho.
func (b Bisquare) Name() string { return "bisquare" }

// Classic is the identity-weight loss that makes every robust formula
// collapse to classical (non-robust) PCA: W ≡ 1 so all observations are
// weighted equally and the "M-scale" is the ordinary mean square. ρ(t)=t is
// unbounded, so Classic violates the bounded contract deliberately — it is
// the paper's classical baseline expressed in the same machinery.
type Classic struct{}

// Rho implements Rho (unbounded: ρ(t)=t).
func (Classic) Rho(t float64) float64 { return t }

// W implements Rho: constant weight 1.
func (Classic) W(t float64) float64 { return 1 }

// WStar implements Rho: constant 1.
func (Classic) WStar(t float64) float64 { return 1 }

// Name implements Rho.
func (Classic) Name() string { return "classic" }
