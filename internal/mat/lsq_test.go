package mat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestSolveCholeskyKnownSystem(t *testing.T) {
	// A = [[4,2],[2,3]] is SPD; solve A x = [10, 8] → x = [1.75, 1.5].
	a := denseOf(2, 2, []float64{4, 2, 2, 3})
	b := []float64{10, 8}
	if err := SolveCholesky(a, b); err != nil {
		t.Fatalf("SolveCholesky: %v", err)
	}
	if math.Abs(b[0]-1.75) > 1e-12 || math.Abs(b[1]-1.5) > 1e-12 {
		t.Errorf("solution = %v, want [1.75 1.5]", b)
	}
}

func TestSolveCholeskyRejectsIndefinite(t *testing.T) {
	a := denseOf(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	err := SolveCholesky(a, []float64{1, 1})
	if !errors.Is(err, ErrSingular) {
		t.Errorf("indefinite error = %v, want ErrSingular", err)
	}
}

func TestSolveCholeskyShapeErrors(t *testing.T) {
	if err := SolveCholesky(NewDense(2, 3), []float64{1, 1}); !errors.Is(err, ErrShape) {
		t.Errorf("non-square = %v, want ErrShape", err)
	}
	if err := SolveCholesky(NewDense(2, 2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("bad rhs = %v, want ErrShape", err)
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 2x + 1 exactly.
	design := denseOf(3, 2, []float64{
		1, 1,
		2, 1,
		3, 1,
	})
	y := []float64{3, 5, 7}
	coef, err := LeastSquares(design, y)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if math.Abs(coef[0]-2) > 1e-10 || math.Abs(coef[1]-1) > 1e-10 {
		t.Errorf("coef = %v, want [2 1]", coef)
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Noisy y = 3x − 2, residuals should be small and symmetric.
	xs := []float64{0, 1, 2, 3, 4, 5}
	noise := []float64{0.1, -0.1, 0.05, -0.05, 0.02, -0.02}
	design := NewDense(len(xs), 2)
	y := make([]float64, len(xs))
	for i, x := range xs {
		design.Set(i, 0, x)
		design.Set(i, 1, 1)
		y[i] = 3*x - 2 + noise[i]
	}
	coef, err := LeastSquares(design, y)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	if math.Abs(coef[0]-3) > 0.05 || math.Abs(coef[1]+2) > 0.1 {
		t.Errorf("coef = %v, want approx [3 -2]", coef)
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(NewDense(2, 3), []float64{1, 1}); !errors.Is(err, ErrShape) {
		t.Errorf("underdetermined = %v, want ErrShape", err)
	}
	if _, err := LeastSquares(NewDense(3, 2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("bad rhs = %v, want ErrShape", err)
	}
}

func TestQRLeastSquaresMatchesNormalEquations(t *testing.T) {
	rng := NewRNG(11)
	design := randomDense(rng, 20, 4)
	y := randomVec(rng, 20)
	viaQR, err := QRLeastSquares(design, y)
	if err != nil {
		t.Fatalf("QRLeastSquares: %v", err)
	}
	viaNE, err := LeastSquares(design, y)
	if err != nil {
		t.Fatalf("LeastSquares: %v", err)
	}
	for i := range viaQR {
		if math.Abs(viaQR[i]-viaNE[i]) > 1e-8 {
			t.Errorf("coef[%d]: QR %v vs NE %v", i, viaQR[i], viaNE[i])
		}
	}
}

func TestQRLeastSquaresDoesNotMutateInputs(t *testing.T) {
	rng := NewRNG(12)
	design := randomDense(rng, 6, 2)
	orig := design.Clone()
	y := randomVec(rng, 6)
	yOrig := Clone(y)
	if _, err := QRLeastSquares(design, y); err != nil {
		t.Fatalf("QRLeastSquares: %v", err)
	}
	if !design.Equal(orig, 0) {
		t.Error("QRLeastSquares mutated the design matrix")
	}
	for i := range y {
		if y[i] != yOrig[i] {
			t.Fatal("QRLeastSquares mutated the rhs")
		}
	}
}

func TestQRLeastSquaresSingularColumn(t *testing.T) {
	design := NewDense(3, 2) // first column all zero
	design.Set(0, 1, 1)
	design.Set(1, 1, 1)
	design.Set(2, 1, 1)
	if _, err := QRLeastSquares(design, []float64{1, 1, 1}); !errors.Is(err, ErrSingular) {
		t.Errorf("zero column = %v, want ErrSingular", err)
	}
}

// Property: the least-squares residual is orthogonal to the column space,
// i.e. Aᵀ(A x̂ − y) ≈ 0.
func TestLeastSquaresResidualOrthogonalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		a := randomDense(rng, 12, 3)
		y := randomVec(rng, 12)
		x, err := QRLeastSquares(a, y)
		if err != nil {
			return true // singular random draw; skip
		}
		resid := make([]float64, 12)
		if err := a.MulVec(resid, x); err != nil {
			return false
		}
		for i := range resid {
			resid[i] -= y[i]
		}
		grad := make([]float64, 3)
		if err := a.MulVecT(grad, resid); err != nil {
			return false
		}
		for _, g := range grad {
			if math.Abs(g) >= 1e-8*(1+Norm2(y)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
