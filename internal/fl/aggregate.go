package fl

import (
	"errors"
	"fmt"

	"eefei/internal/ml"
)

// ErrAggregate is returned (wrapped) when an aggregation cannot be formed.
var ErrAggregate = errors.New("fl: aggregation error")

// Update is one client's contribution to a round: its locally trained model
// and its final local training loss.
type Update struct {
	Client int
	Model  *ml.Model
	Loss   float64
}

// mean implements the paper's Eq. (2), ω ← (1/K)·Σ ω_k, writing the
// average of the updates' models into dst (pre-sized to the model shape;
// previous contents are discarded).
func mean(dst *ml.Model, updates []Update) error {
	if len(updates) == 0 {
		return fmt.Errorf("no updates: %w", ErrAggregate)
	}
	dst.Zero()
	w := 1 / float64(len(updates))
	for _, u := range updates {
		if err := dst.AddScaled(w, u.Model); err != nil {
			return fmt.Errorf("mean of client %d: %w", u.Client, err)
		}
	}
	return nil
}
