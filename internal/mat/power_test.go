package mat

import (
	"errors"
	"math"
	"testing"
)

func TestGramLargestEigenvalueMatchesExplicit(t *testing.T) {
	// Row i of X holds c[i%6] in column i%6 and zeros elsewhere, so
	// XᵀX/n = diag(5·c_j²/30): the explicit top eigenvalue is 5·6²/30 = 6.
	c := []float64{1, 2, 3, 4, 5, 6}
	x := NewDense(30, 6)
	for i := 0; i < 30; i++ {
		x.Set(i, i%6, c[i%6])
	}
	viaGram, err := GramLargestEigenvalue(x, 1e-12, 0, 3)
	if err != nil {
		t.Fatalf("GramLargestEigenvalue: %v", err)
	}
	if explicit := 6.0; math.Abs(viaGram-explicit) > 1e-6*(1+explicit) {
		t.Errorf("gram path %v vs explicit %v", viaGram, explicit)
	}
}

func TestGramLargestEigenvalueRankOne(t *testing.T) {
	// X with identical rows u: XᵀX/n = uuᵀ has top eigenvalue ‖u‖².
	u := []float64{1, 2, 2} // ‖u‖² = 9
	x := NewDense(10, 3)
	for i := 0; i < 10; i++ {
		copy(x.Row(i), u)
	}
	lambda, err := GramLargestEigenvalue(x, 1e-12, 0, 1)
	if err != nil {
		t.Fatalf("GramLargestEigenvalue: %v", err)
	}
	if math.Abs(lambda-9) > 1e-8 {
		t.Errorf("lambda = %v, want 9", lambda)
	}
}

func TestGramLargestEigenvalueErrors(t *testing.T) {
	if _, err := GramLargestEigenvalue(NewDense(0, 3), 1e-9, 0, 1); !errors.Is(err, ErrShape) {
		t.Errorf("empty = %v, want ErrShape", err)
	}
}
