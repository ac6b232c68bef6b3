package optim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestGoldenSectionQuadratic(t *testing.T) {
	f := func(x float64) float64 { return (x - 3) * (x - 3) }
	x, err := GoldenSection(f, -10, 10, 1e-8)
	if err != nil {
		t.Fatalf("GoldenSection: %v", err)
	}
	if math.Abs(x-3) > 1e-6 {
		t.Errorf("argmin = %v, want 3", x)
	}
}

func TestGoldenSectionBoundaryMinimum(t *testing.T) {
	// Monotone increasing: minimum at the left boundary.
	f := func(x float64) float64 { return x }
	x, err := GoldenSection(f, 2, 9, 1e-8)
	if err != nil {
		t.Fatalf("GoldenSection: %v", err)
	}
	if math.Abs(x-2) > 1e-6 {
		t.Errorf("argmin = %v, want boundary 2", x)
	}
}

func TestGoldenSectionErrors(t *testing.T) {
	f := func(x float64) float64 { return x }
	if _, err := GoldenSection(f, 5, 1, 1e-8); !errors.Is(err, ErrDomain) {
		t.Errorf("inverted domain = %v, want ErrDomain", err)
	}
	if _, err := GoldenSection(f, 0, 1, 0); !errors.Is(err, ErrDomain) {
		t.Errorf("zero tol = %v, want ErrDomain", err)
	}
	if _, err := GoldenSection(f, math.NaN(), 1, 1e-8); !errors.Is(err, ErrDomain) {
		t.Errorf("NaN bound = %v, want ErrDomain", err)
	}
}

func TestMinimizeIntExact(t *testing.T) {
	f := func(x int) float64 { return float64((x - 37) * (x - 37)) }
	x, v, err := MinimizeInt(f, 1, 1000)
	if err != nil {
		t.Fatalf("MinimizeInt: %v", err)
	}
	if x != 37 || v != 0 {
		t.Errorf("argmin = %d (%v), want 37 (0)", x, v)
	}
}

func TestMinimizeIntBoundaries(t *testing.T) {
	inc := func(x int) float64 { return float64(x) }
	x, _, err := MinimizeInt(inc, 5, 20)
	if err != nil || x != 5 {
		t.Errorf("increasing: argmin = %d err %v, want 5", x, err)
	}
	dec := func(x int) float64 { return float64(-x) }
	x, _, err = MinimizeInt(dec, 5, 20)
	if err != nil || x != 20 {
		t.Errorf("decreasing: argmin = %d err %v, want 20", x, err)
	}
	// Single-point domain.
	x, v, err := MinimizeInt(inc, 7, 7)
	if err != nil || x != 7 || v != 7 {
		t.Errorf("singleton: %d %v %v", x, v, err)
	}
	if _, _, err := MinimizeInt(inc, 3, 2); !errors.Is(err, ErrDomain) {
		t.Errorf("inverted = %v, want ErrDomain", err)
	}
}

// biconvex test function: f(x,y) = (x−2)² + (y−5)² + xy/10 is biconvex (it
// is convex in each variable separately; the coupling term is bilinear).
func testProblem() ACSProblem {
	obj := func(x, y float64) float64 {
		return (x-2)*(x-2) + (y-5)*(y-5) + x*y/10
	}
	return ACSProblem{
		Objective: obj,
		// ∂f/∂x = 2(x−2) + y/10 = 0 → x = 2 − y/20
		MinimizeX: func(y float64) float64 { return 2 - y/20 },
		// ∂f/∂y = 2(y−5) + x/10 = 0 → y = 5 − x/20
		MinimizeY: func(x float64) float64 { return 5 - x/20 },
	}
}

func TestACSConvergesToStationaryPoint(t *testing.T) {
	p := testProblem()
	res, err := ACS(p, 0, 0, 1e-12, 100)
	if err != nil {
		t.Fatalf("ACS: %v", err)
	}
	// Solve the 2×2 linear system exactly: x = 2 − y/20, y = 5 − x/20.
	wantX := (2.0 - 5.0/20) / (1 - 1.0/400)
	wantY := 5 - wantX/20
	if math.Abs(res.X-wantX) > 1e-6 || math.Abs(res.Y-wantY) > 1e-6 {
		t.Errorf("ACS point = (%v,%v), want (%v,%v)", res.X, res.Y, wantX, wantY)
	}
	if res.Iterations == 0 || len(res.Trajectory) != res.Iterations {
		t.Errorf("iteration bookkeeping wrong: %d iters, %d trajectory",
			res.Iterations, len(res.Trajectory))
	}
}

func TestACSTrajectoryNonIncreasing(t *testing.T) {
	p := testProblem()
	res, err := ACS(p, -50, 80, 1e-12, 100)
	if err != nil {
		t.Fatalf("ACS: %v", err)
	}
	prev := math.Inf(1)
	for i, v := range res.Trajectory {
		if v > prev+1e-9 {
			t.Fatalf("objective increased at iteration %d: %v -> %v", i, prev, v)
		}
		prev = v
	}
}

func TestACSBudgetExhaustion(t *testing.T) {
	// Partial "minimizers" that walk away keep changing the objective and
	// can never meet the residual.
	p := ACSProblem{
		Objective: func(x, y float64) float64 { return x*x + y*y },
		MinimizeX: func(y float64) float64 { return y + 1 },
		MinimizeY: func(x float64) float64 { return x + 1 },
	}
	_, err := ACS(p, 0, 0, 1e-15, 5)
	if !errors.Is(err, ErrNoConverge) {
		t.Errorf("oscillation = %v, want ErrNoConverge", err)
	}
}

func TestACSValidation(t *testing.T) {
	if _, err := ACS(ACSProblem{}, 0, 0, 1e-6, 10); !errors.Is(err, ErrDomain) {
		t.Errorf("nil functions = %v, want ErrDomain", err)
	}
	p := testProblem()
	if _, err := ACS(p, 0, 0, 0, 10); !errors.Is(err, ErrDomain) {
		t.Errorf("zero residual = %v, want ErrDomain", err)
	}
}

func TestGridSearch2D(t *testing.T) {
	f := func(x, y int) float64 { return float64((x-3)*(x-3) + (y-7)*(y-7)) }
	best, err := GridSearch2D(f, nil, 0, 10, 0, 10)
	if err != nil {
		t.Fatalf("GridSearch2D: %v", err)
	}
	if best.X != 3 || best.Y != 7 || best.Value != 0 {
		t.Errorf("best = %+v, want (3,7,0)", best)
	}
}

func TestGridSearch2DWithConstraint(t *testing.T) {
	f := func(x, y int) float64 { return float64(x + y) }
	valid := func(x, y int) bool { return x+y >= 5 }
	best, err := GridSearch2D(f, valid, 0, 10, 0, 10)
	if err != nil {
		t.Fatalf("GridSearch2D: %v", err)
	}
	if best.Value != 5 {
		t.Errorf("constrained best = %+v, want value 5", best)
	}
}

func TestGridSearch2DErrors(t *testing.T) {
	f := func(x, y int) float64 { return 0 }
	if _, err := GridSearch2D(f, nil, 5, 1, 0, 1); !errors.Is(err, ErrDomain) {
		t.Errorf("inverted box = %v, want ErrDomain", err)
	}
	never := func(x, y int) bool { return false }
	if _, err := GridSearch2D(f, never, 0, 2, 0, 2); !errors.Is(err, ErrDomain) {
		t.Errorf("infeasible grid = %v, want ErrDomain", err)
	}
}

// Property: golden-section on random convex parabolas recovers the vertex.
func TestGoldenSectionParabolaProperty(t *testing.T) {
	f := func(vertexRaw int16, scaleRaw uint8) bool {
		vertex := float64(vertexRaw) / 100
		scale := 0.1 + float64(scaleRaw)/50
		fn := func(x float64) float64 { return scale * (x - vertex) * (x - vertex) }
		x, err := GoldenSection(fn, vertex-100, vertex+100, 1e-9)
		return err == nil && math.Abs(x-vertex) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: MinimizeInt agrees with a brute-force scan on random convex
// integer functions.
func TestMinimizeIntAgreesWithScanProperty(t *testing.T) {
	f := func(vertexRaw uint8, loRaw uint8) bool {
		lo := int(loRaw % 50)
		hi := lo + 100
		vertex := lo + int(vertexRaw)%(hi-lo+1)
		fn := func(x int) float64 { return float64((x - vertex) * (x - vertex)) }
		gotX, gotV, err := MinimizeInt(fn, lo, hi)
		if err != nil {
			return false
		}
		bestX, bestV := lo, fn(lo)
		for x := lo + 1; x <= hi; x++ {
			if v := fn(x); v < bestV {
				bestX, bestV = x, v
			}
		}
		return gotX == bestX && gotV == bestV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
