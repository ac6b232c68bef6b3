package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned (wrapped) when a linear system is singular or so
// ill-conditioned the factorization breaks down.
var ErrSingular = errors.New("mat: singular system")

// SolveCholesky solves the symmetric positive-definite system A·x = b in
// place using a Cholesky factorization. A is overwritten with its factor and
// b with the solution. Returns ErrSingular when A is not positive definite.
func SolveCholesky(a *Dense, b []float64) error {
	n := a.rows
	if a.cols != n {
		return fmt.Errorf("cholesky of %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	if len(b) != n {
		return fmt.Errorf("cholesky rhs len %d for n=%d: %w", len(b), n, ErrShape)
	}
	// Factor A = L·Lᵀ (lower triangle of a holds L).
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			l := a.At(j, k)
			d -= l * l
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("pivot %d = %g: %w", j, d, ErrSingular)
		}
		d = math.Sqrt(d)
		a.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s/d)
		}
	}
	// Forward solve L·y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= a.At(i, k) * b[k]
		}
		b[i] = s / a.At(i, i)
	}
	// Back solve Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= a.At(k, i) * b[k]
		}
		b[i] = s / a.At(i, i)
	}
	return nil
}

// LeastSquares solves min_x ‖A·x − b‖₂ for a tall (or square) matrix A via
// the normal equations AᵀA·x = Aᵀb with a Cholesky solve. It is fast and
// adequate for the well-conditioned two- and three-parameter fits the energy
// model needs; use QRLeastSquares when conditioning is a concern.
func LeastSquares(a *Dense, b []float64) ([]float64, error) {
	if len(b) != a.rows {
		return nil, fmt.Errorf("lsq rhs len %d for %d rows: %w", len(b), a.rows, ErrShape)
	}
	if a.rows < a.cols {
		return nil, fmt.Errorf("lsq underdetermined %dx%d: %w", a.rows, a.cols, ErrShape)
	}
	ata := NewDense(a.cols, a.cols)
	if err := MulTA(ata, a, a); err != nil {
		return nil, fmt.Errorf("normal equations: %w", err)
	}
	atb := make([]float64, a.cols)
	if err := a.MulVecT(atb, b); err != nil {
		return nil, fmt.Errorf("normal equations rhs: %w", err)
	}
	if err := SolveCholesky(ata, atb); err != nil {
		return nil, fmt.Errorf("normal equations solve: %w", err)
	}
	return atb, nil
}

// QRLeastSquares solves min_x ‖A·x − b‖₂ using Householder QR. It is slower
// than LeastSquares but numerically robust for ill-conditioned designs.
// A and b are not modified.
func QRLeastSquares(a *Dense, b []float64) ([]float64, error) {
	m, n := a.rows, a.cols
	if len(b) != m {
		return nil, fmt.Errorf("qr lsq rhs len %d for %d rows: %w", len(b), m, ErrShape)
	}
	if m < n {
		return nil, fmt.Errorf("qr lsq underdetermined %dx%d: %w", m, n, ErrShape)
	}
	r := a.Clone()
	y := Clone(b)
	// Householder reduction applied simultaneously to r and y.
	for k := 0; k < n; k++ {
		// Build the reflector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm = math.Hypot(norm, r.At(i, k))
		}
		if norm == 0 {
			return nil, fmt.Errorf("column %d is zero: %w", k, ErrSingular)
		}
		// Choose the reflector sign to avoid cancellation in v_k = 1 + x_k/norm.
		if r.At(k, k) < 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			r.Set(i, k, r.At(i, k)/norm)
		}
		r.Set(k, k, r.At(k, k)+1)
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += r.At(i, k) * r.At(i, j)
			}
			s = -s / r.At(k, k)
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)+s*r.At(i, k))
			}
		}
		// Apply the reflector to the right-hand side.
		var s float64
		for i := k; i < m; i++ {
			s += r.At(i, k) * y[i]
		}
		s = -s / r.At(k, k)
		for i := k; i < m; i++ {
			y[i] += s * r.At(i, k)
		}
		// The reflector maps the column to −norm·e_k, so the R diagonal is −norm.
		r.Set(k, k, -norm)
	}
	// Back-substitute R·x = y[:n]. The upper triangle above the diagonal of r
	// holds R; the diagonal entries were overwritten with the true R diagonal.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if d == 0 {
			return nil, fmt.Errorf("zero diagonal at %d: %w", i, ErrSingular)
		}
		x[i] = s / d
	}
	return x, nil
}
