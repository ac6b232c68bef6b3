package ml

import (
	"fmt"
	"math"

	"eefei/internal/dataset"
	"eefei/internal/mat"
)

// epsLog floors probabilities inside logarithms so a saturated sigmoid or
// softmax cannot produce -Inf loss.
const epsLog = 1e-12

// Loss computes the mean loss of the model over d: cross-entropy for the
// softmax head, summed per-class binary cross-entropy for the sigmoid head.
// This is the F_k(ω) of the paper's Eq. (1).
//
// Loss allocates one chunk scratch per call; evaluation loops should hold an
// Evaluator, which reuses its scratch and can shard the pass over workers.
func Loss(m *Model, d *dataset.Dataset) (float64, error) {
	if d.Dim() != m.Features() {
		return 0, fmt.Errorf("loss on %d-dim data with %d-dim model: %w", d.Dim(), m.Features(), ErrModelShape)
	}
	var sc fwdScratch
	total, _, err := forwardRowRange(m, d, 0, d.Len(), &sc, true, false)
	if err != nil {
		return 0, err
	}
	return total / float64(d.Len()), nil
}

// sampleLoss returns one sample's loss given its class probabilities.
func sampleLoss(act Activation, probs []float64, y int) float64 {
	var total float64
	switch act {
	case Sigmoid:
		for c, p := range probs {
			if c == y {
				total -= math.Log(math.Max(p, epsLog))
			} else {
				total -= math.Log(math.Max(1-p, epsLog))
			}
		}
	default:
		total -= math.Log(math.Max(probs[y], epsLog))
	}
	return total
}

// Gradient accumulates the mean gradient of the loss over the rows of d into
// grad (a model-shaped accumulator that the caller typically zeroes first),
// and returns the mean loss computed in the same pass.
//
// For both heads the per-sample gradient has the classic linear-model form
// (p − t)·xᵀ where t is the one-hot target, because the softmax/CE and
// sigmoid/BCE pairings share that derivative.
func Gradient(m *Model, d *dataset.Dataset, grad *Model) (float64, error) {
	if d.Dim() != m.Features() {
		return 0, fmt.Errorf("gradient on %d-dim data with %d-dim model: %w", d.Dim(), m.Features(), ErrModelShape)
	}
	if grad.Classes() != m.Classes() || grad.Features() != m.Features() {
		return 0, fmt.Errorf("gradient accumulator %dx%d for model %dx%d: %w",
			grad.Classes(), grad.Features(), m.Classes(), m.Features(), ErrModelShape)
	}
	var sc fwdScratch
	return gradientRows(m, d, nil, grad, &sc)
}

// gradientRows accumulates the mean gradient over the given rows of d (nil
// rows selects every row) into grad using the caller's chunk scratch, and
// returns the mean loss over the same rows. It is the allocation-free core
// the SGD epoch loop runs: mini-batches pass permutation slices directly
// instead of materializing subset datasets.
//
// The pass is blocked like the evaluation forward: each evalChunk row-block
// gets its logits from one X_chunk·Wᵀ product, the probability rows are
// turned into deltas in place (p, or p−1 at the label), and the weight
// gradient takes the whole block's outer-product update through one
// mat.AddMulTA call. Per gradient element the contributions land in sample
// order with the same delta·invN coefficients (zero coefficients skipped) as
// the sequential per-sample Axpy formulation, so the result is bit-identical
// to it.
func gradientRows(m *Model, d *dataset.Dataset, rows []int, grad *Model, sc *fwdScratch) (float64, error) {
	n := d.Len()
	if rows != nil {
		n = len(rows)
	}
	if n == 0 {
		return 0, dataset.ErrEmpty
	}
	logits := sc.ensureLogits(m.Classes())
	var totalLoss float64
	invN := 1 / float64(n)
	for blo := 0; blo < n; blo += evalChunk {
		bhi := blo + evalChunk
		if bhi > n {
			bhi = n
		}
		// x is the block's sample matrix: a contiguous view for the
		// full-dataset pass, or the gather buffer for permutation slices.
		var x mat.Dense
		if rows == nil {
			x = d.X.SliceRows(blo, bhi)
		} else {
			xg := sc.ensureX(m.Features())
			for r, i := range rows[blo:bhi] {
				if i < 0 || i >= d.Len() {
					return 0, fmt.Errorf("gradient row %d outside [0,%d): %w", i, d.Len(), ErrModelShape)
				}
				copy(xg.Row(r), d.X.Row(i))
			}
			x = xg.SliceRows(0, bhi-blo)
		}
		lg := logits.SliceRows(0, bhi-blo)
		if err := mat.MulT(&lg, &x, m.W); err != nil {
			return 0, fmt.Errorf("batched logits: %w", err)
		}
		for r := 0; r < lg.Rows(); r++ {
			row := lg.Row(r)
			mat.Axpy(row, 1, m.B)
			switch m.Act {
			case Sigmoid:
				for i, z := range row {
					row[i] = sigmoid(z)
				}
			default:
				softmaxInPlace(row)
			}
			y := d.Labels[blo+r]
			if rows != nil {
				y = d.Labels[rows[blo+r]]
			}
			totalLoss += sampleLoss(m.Act, row, y)
			row[y] -= 1
			for c, delta := range row {
				grad.B[c] += delta * invN
			}
		}
		if err := mat.AddMulTA(grad.W, &lg, &x, invN); err != nil {
			return 0, fmt.Errorf("gradient accumulate: %w", err)
		}
	}
	return totalLoss * invN, nil
}

// GradientNorm returns ‖∇F(ω)‖₂ over d, used when estimating the bound
// constant σ² (variance of stochastic gradients at the optimum).
func GradientNorm(m *Model, d *dataset.Dataset) (float64, error) {
	grad := NewModel(m.Classes(), m.Features(), m.Act)
	if _, err := Gradient(m, d, grad); err != nil {
		return 0, err
	}
	zero := NewModel(m.Classes(), m.Features(), m.Act)
	return grad.ParamDistance(zero), nil
}

// Accuracy returns the fraction of samples in d the model classifies
// correctly.
func Accuracy(m *Model, d *dataset.Dataset) (float64, error) {
	preds, err := m.PredictBatch(d)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range preds {
		if p == d.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(preds)), nil
}
