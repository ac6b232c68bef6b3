package ml

import (
	"fmt"

	"eefei/internal/dataset"
	"eefei/internal/mat"
)

// SGDConfig holds the optimizer hyper-parameters from the paper's Table II:
// learning rate 0.01 with multiplicative decay 0.99 per global round, full
// batch (BatchSize = 0 means "use the whole shard").
type SGDConfig struct {
	// LearningRate is the initial step size γ.
	LearningRate float64
	// Decay multiplies the learning rate once per DecayEvery local epochs;
	// the paper decays per global round, which callers express by setting
	// DecayEvery to the local epoch count E.
	Decay float64
	// DecayEvery is the number of epochs between decay applications.
	// Zero disables decay.
	DecayEvery int
	// BatchSize is the mini-batch size n_k; 0 selects full-batch SGD, the
	// paper's setting.
	BatchSize int
	// ProximalMu enables FedProx-style local training: each step also pulls
	// the model toward a reference (the round's global model) with strength
	// µ, damping client drift on heterogeneous shards. Zero disables it;
	// the reference is supplied via SetProximalRef.
	ProximalMu float64
	// Seed drives mini-batch shuffling (unused for full batch).
	Seed uint64
}

// SGD performs gradient-descent epochs over a dataset, tracking the decayed
// learning rate across calls so that a federated client can run E epochs per
// round and keep decaying round over round.
type SGD struct {
	cfg     SGDConfig
	lr      float64
	step    int // epochs performed so far, drives decay
	rng     *mat.RNG
	grad    *Model     // reusable gradient accumulator
	fwd     fwdScratch // reusable batched-forward chunk scratch
	perm    []int      // reusable mini-batch shuffle buffer
	proxRef *Model     // FedProx anchor; nil disables the proximal pull
}

// SetProximalRef anchors FedProx local training to ref (typically the
// round's global model). The reference is not copied; callers must not
// mutate it during training. A nil ref disables the proximal term.
func (s *SGD) SetProximalRef(ref *Model) { s.proxRef = ref }

// applyProximal pulls m toward the proximal reference after a gradient
// step: m ← m − lr·µ·(m − ref).
func (s *SGD) applyProximal(m *Model) {
	if s.cfg.ProximalMu <= 0 || s.proxRef == nil {
		return
	}
	scale := s.lr * s.cfg.ProximalMu
	w, r := m.W.RawData(), s.proxRef.W.RawData()
	for i := range w {
		w[i] -= scale * (w[i] - r[i])
	}
	for i := range m.B {
		m.B[i] -= scale * (m.B[i] - s.proxRef.B[i])
	}
}

// NewSGD validates cfg and returns an optimizer.
func NewSGD(cfg SGDConfig) (*SGD, error) {
	s := &SGD{}
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset revalidates and adopts cfg, rewinds the decay schedule, reseeds the
// shuffle stream in place, and clears any proximal reference — while keeping
// the gradient accumulator and scratch buffers. A federated worker calls
// Reset once per (client, round) assignment so that training allocates
// nothing after the first round, and the resulting streams depend only on
// cfg.Seed, never on which worker ran the client.
func (s *SGD) Reset(cfg SGDConfig) error {
	if cfg.LearningRate <= 0 {
		return fmt.Errorf("ml: learning rate %v must be positive", cfg.LearningRate)
	}
	if cfg.Decay < 0 || cfg.Decay > 1 {
		return fmt.Errorf("ml: decay %v outside [0,1]", cfg.Decay)
	}
	if cfg.BatchSize < 0 {
		return fmt.Errorf("ml: batch size %v negative", cfg.BatchSize)
	}
	if cfg.ProximalMu < 0 {
		return fmt.Errorf("ml: proximal mu %v negative", cfg.ProximalMu)
	}
	s.cfg = cfg
	s.lr = cfg.LearningRate
	s.step = 0
	s.proxRef = nil
	if s.rng == nil {
		s.rng = mat.NewRNG(cfg.Seed)
	} else {
		s.rng.Reseed(cfg.Seed)
	}
	return nil
}

// Epoch performs one pass over d, updating m in place, and returns the mean
// loss measured at the start of the pass.
func (s *SGD) Epoch(m *Model, d *dataset.Dataset) (float64, error) {
	if d.Len() == 0 {
		return 0, dataset.ErrEmpty
	}
	if d.Dim() != m.Features() {
		return 0, fmt.Errorf("epoch on %d-dim data with %d-dim model: %w", d.Dim(), m.Features(), ErrModelShape)
	}
	if s.grad == nil || s.grad.Classes() != m.Classes() || s.grad.Features() != m.Features() {
		s.grad = NewModel(m.Classes(), m.Features(), m.Act)
	}

	var loss float64
	if s.cfg.BatchSize <= 0 || s.cfg.BatchSize >= d.Len() {
		// Full-batch gradient descent (the paper's setting).
		s.grad.Zero()
		l, err := gradientRows(m, d, nil, s.grad, &s.fwd)
		if err != nil {
			return 0, fmt.Errorf("epoch gradient: %w", err)
		}
		loss = l
		if err := m.AddScaled(-s.lr, s.grad); err != nil {
			return 0, fmt.Errorf("epoch update: %w", err)
		}
		s.applyProximal(m)
	} else {
		// Mini-batch pass in shuffled order. The shuffle buffer is reused
		// across epochs and batches are permutation slices fed straight to
		// the gradient core — no subset datasets are materialized.
		if len(s.perm) != d.Len() {
			s.perm = make([]int, d.Len())
		}
		s.rng.PermInto(s.perm)
		var batches, lossSum float64
		for start := 0; start < len(s.perm); start += s.cfg.BatchSize {
			end := start + s.cfg.BatchSize
			if end > len(s.perm) {
				end = len(s.perm)
			}
			s.grad.Zero()
			l, err := gradientRows(m, d, s.perm[start:end], s.grad, &s.fwd)
			if err != nil {
				return 0, fmt.Errorf("epoch gradient: %w", err)
			}
			lossSum += l
			batches++
			if err := m.AddScaled(-s.lr, s.grad); err != nil {
				return 0, fmt.Errorf("epoch update: %w", err)
			}
			s.applyProximal(m)
		}
		loss = lossSum / batches
	}

	s.step++
	if s.cfg.DecayEvery > 0 && s.cfg.Decay > 0 && s.step%s.cfg.DecayEvery == 0 {
		s.lr *= s.cfg.Decay
	}
	return loss, nil
}

// Train runs epochs passes over d and returns the loss trajectory (one entry
// per epoch, measured at the start of each pass).
func (s *SGD) Train(m *Model, d *dataset.Dataset, epochs int) ([]float64, error) {
	if epochs <= 0 {
		return nil, fmt.Errorf("ml: epochs %d must be positive", epochs)
	}
	losses := make([]float64, 0, epochs)
	for e := 0; e < epochs; e++ {
		l, err := s.Epoch(m, d)
		if err != nil {
			return losses, fmt.Errorf("epoch %d: %w", e, err)
		}
		losses = append(losses, l)
	}
	return losses, nil
}

// TrainFinal runs epochs passes over d like Train but returns only the final
// epoch's loss, allocating nothing. Hot loops (the federated engine trains
// K clients per round) use this to skip the trajectory slice.
func (s *SGD) TrainFinal(m *Model, d *dataset.Dataset, epochs int) (float64, error) {
	if epochs <= 0 {
		return 0, fmt.Errorf("ml: epochs %d must be positive", epochs)
	}
	var last float64
	for e := 0; e < epochs; e++ {
		l, err := s.Epoch(m, d)
		if err != nil {
			return 0, fmt.Errorf("epoch %d: %w", e, err)
		}
		last = l
	}
	return last, nil
}
