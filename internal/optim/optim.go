// Package optim provides the generic optimization machinery the EE-FEI
// planner is built on: golden-section search over convex 1-D functions,
// exact integer minimization of discretely-convex functions, Alternate
// Convex Search (ACS, Gorski–Pfeuffer–Klamroth 2007) for biconvex
// objectives, and exhaustive 2-D integer grid search used as the ablation
// baseline.
package optim

import (
	"errors"
	"fmt"
	"math"
)

// ErrDomain is returned (wrapped) when search bounds are invalid.
var ErrDomain = errors.New("optim: invalid search domain")

// ErrNoConverge is returned (wrapped) when an iterative method exhausts its
// budget without meeting its tolerance.
var ErrNoConverge = errors.New("optim: did not converge")

// invPhi is 1/φ, the golden-section step ratio.
var invPhi = (math.Sqrt(5) - 1) / 2

// GoldenSection minimizes a unimodal f over [lo, hi] to within tol and
// returns the minimizer. It needs no derivatives and is robust on the
// paper's strictly convex K- and E-slices.
func GoldenSection(f func(float64) float64, lo, hi, tol float64) (float64, error) {
	if math.IsNaN(lo) || math.IsNaN(hi) || hi < lo {
		return 0, fmt.Errorf("golden section on [%v,%v]: %w", lo, hi, ErrDomain)
	}
	if tol <= 0 {
		return 0, fmt.Errorf("golden section tol %v: %w", tol, ErrDomain)
	}
	a, b := lo, hi
	c := b - invPhi*(b-a)
	d := a + invPhi*(b-a)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - invPhi*(b-a)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + invPhi*(b-a)
			fd = f(d)
		}
	}
	return (a + b) / 2, nil
}

// MinimizeInt minimizes a discretely-convex f over the integer interval
// [lo, hi] exactly using ternary search, falling back to a linear scan for
// narrow ranges. It returns the argmin and the minimum value.
func MinimizeInt(f func(int) float64, lo, hi int) (int, float64, error) {
	if hi < lo {
		return 0, 0, fmt.Errorf("integer search on [%d,%d]: %w", lo, hi, ErrDomain)
	}
	a, b := lo, hi
	for b-a > 3 {
		m1 := a + (b-a)/3
		m2 := b - (b-a)/3
		if f(m1) <= f(m2) {
			b = m2
		} else {
			a = m1
		}
	}
	bestX, bestF := a, f(a)
	for x := a + 1; x <= b; x++ {
		if v := f(x); v < bestF {
			bestX, bestF = x, v
		}
	}
	return bestX, bestF, nil
}

// ACSProblem describes a biconvex minimization min_{x,y} f(x,y) through its
// two partial minimizers. The EE-FEI planner instantiates it with the
// closed-form K*(E) and E*(K) of paper Eqs. (15) and (17).
type ACSProblem struct {
	// Objective evaluates f(x, y).
	Objective func(x, y float64) float64
	// MinimizeX returns argmin_x f(x, y) for fixed y.
	MinimizeX func(y float64) float64
	// MinimizeY returns argmin_y f(x, y) for fixed x.
	MinimizeY func(x float64) float64
}

// ACSResult reports the outcome of an Alternate Convex Search run.
type ACSResult struct {
	X, Y float64
	// Value is f(X, Y).
	Value float64
	// Iterations is the number of alternation steps performed.
	Iterations int
	// Trajectory holds the objective value after each iteration, for
	// convergence diagnostics.
	Trajectory []float64
}

// ACS runs Algorithm 1 of the paper: starting at (x0, y0), alternately
// substitute the current y into MinimizeX and the current x into MinimizeY
// until the objective changes by at most residual ξ between successive
// iterations (or maxIter is hit, which returns ErrNoConverge alongside the
// best point found).
func ACS(p ACSProblem, x0, y0, residual float64, maxIter int) (ACSResult, error) {
	if p.Objective == nil || p.MinimizeX == nil || p.MinimizeY == nil {
		return ACSResult{}, fmt.Errorf("nil problem function: %w", ErrDomain)
	}
	if residual <= 0 {
		return ACSResult{}, fmt.Errorf("residual %v: %w", residual, ErrDomain)
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	res := ACSResult{X: x0, Y: y0, Value: p.Objective(x0, y0)}
	prev := res.Value
	for i := 0; i < maxIter; i++ {
		res.X = p.MinimizeX(res.Y)
		res.Y = p.MinimizeY(res.X)
		res.Value = p.Objective(res.X, res.Y)
		res.Iterations++
		res.Trajectory = append(res.Trajectory, res.Value)
		if math.Abs(prev-res.Value) <= residual {
			return res, nil
		}
		prev = res.Value
	}
	return res, fmt.Errorf("after %d iterations, residual %v not met: %w",
		res.Iterations, residual, ErrNoConverge)
}

// GridPoint is one evaluated point of a 2-D integer grid search.
type GridPoint struct {
	X, Y  int
	Value float64
}

// GridSearch2D exhaustively evaluates f over the integer box
// [xLo,xHi]×[yLo,yHi], skipping points where valid returns false, and
// returns the best point. It is the brute-force baseline the ACS ablation
// compares against.
func GridSearch2D(f func(x, y int) float64, valid func(x, y int) bool,
	xLo, xHi, yLo, yHi int) (GridPoint, error) {
	if xHi < xLo || yHi < yLo {
		return GridPoint{}, fmt.Errorf("grid [%d,%d]x[%d,%d]: %w", xLo, xHi, yLo, yHi, ErrDomain)
	}
	best := GridPoint{Value: math.Inf(1)}
	found := false
	for x := xLo; x <= xHi; x++ {
		for y := yLo; y <= yHi; y++ {
			if valid != nil && !valid(x, y) {
				continue
			}
			if v := f(x, y); v < best.Value {
				best = GridPoint{X: x, Y: y, Value: v}
				found = true
			}
		}
	}
	if !found {
		return GridPoint{}, fmt.Errorf("no feasible point in grid: %w", ErrDomain)
	}
	return best, nil
}
