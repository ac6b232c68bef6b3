// Package dataset provides the classification datasets the FEI experiments
// train on: a deterministic synthetic MNIST-like generator (the paper's MNIST
// substitution — see DESIGN.md §2), a parser for the real MNIST IDX file
// format for when the genuine files are available, and the IID / label-skew
// partitioners that split a dataset across edge servers.
package dataset

import (
	"errors"
	"fmt"

	"eefei/internal/mat"
)

// ErrEmpty is returned (wrapped) for operations on empty datasets.
var ErrEmpty = errors.New("dataset: empty dataset")

// Dataset is an in-memory labelled classification dataset. X is n×d
// (one sample per row), Labels holds the class index of each row, and
// Classes the number of distinct classes.
type Dataset struct {
	X       *mat.Dense
	Labels  []int
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int {
	if d == nil || d.X == nil {
		return 0
	}
	return d.X.Rows()
}

// Dim returns the feature dimension.
func (d *Dataset) Dim() int {
	if d == nil || d.X == nil {
		return 0
	}
	return d.X.Cols()
}

// Validate checks internal consistency: label count matches row count and
// every label is inside [0, Classes).
func (d *Dataset) Validate() error {
	if d.Len() == 0 {
		return ErrEmpty
	}
	if len(d.Labels) != d.X.Rows() {
		return fmt.Errorf("dataset: %d labels for %d rows", len(d.Labels), d.X.Rows())
	}
	if d.Classes <= 0 {
		return fmt.Errorf("dataset: classes = %d", d.Classes)
	}
	for i, y := range d.Labels {
		if y < 0 || y >= d.Classes {
			return fmt.Errorf("dataset: label %d at row %d outside [0,%d)", y, i, d.Classes)
		}
	}
	return nil
}

// Subset returns a view-dataset containing the given rows (copied, so the
// subset is independent of the parent).
func (d *Dataset) Subset(rows []int) (*Dataset, error) {
	if d.Len() == 0 {
		return nil, ErrEmpty
	}
	out := &Dataset{
		X:       mat.NewDense(len(rows), d.Dim()),
		Labels:  make([]int, len(rows)),
		Classes: d.Classes,
	}
	for i, r := range rows {
		if r < 0 || r >= d.Len() {
			return nil, fmt.Errorf("dataset: row %d outside [0,%d)", r, d.Len())
		}
		copy(out.X.Row(i), d.X.Row(r))
		out.Labels[i] = d.Labels[r]
	}
	return out, nil
}

// Shuffle permutes the samples in place using the supplied RNG.
func (d *Dataset) Shuffle(rng *mat.RNG) {
	n := d.Len()
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		if i == j {
			continue
		}
		ri, rj := d.X.Row(i), d.X.Row(j)
		for k := range ri {
			ri[k], rj[k] = rj[k], ri[k]
		}
		d.Labels[i], d.Labels[j] = d.Labels[j], d.Labels[i]
	}
}
