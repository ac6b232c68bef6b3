package fl

import (
	"errors"
	"testing"

	"eefei/internal/ml"
)

func modelWith(val float64) *ml.Model {
	m := ml.NewModel(2, 2, ml.Softmax)
	for i := range m.W.RawData() {
		m.W.RawData()[i] = val
	}
	for i := range m.B {
		m.B[i] = val
	}
	return m
}

func TestMeanAggregator(t *testing.T) {
	dst := ml.NewModel(2, 2, ml.Softmax)
	updates := []Update{
		{Client: 0, Model: modelWith(1)},
		{Client: 1, Model: modelWith(3)},
	}
	if err := mean(dst, updates); err != nil {
		t.Fatalf("mean: %v", err)
	}
	if dst.W.At(0, 0) != 2 || dst.B[1] != 2 {
		t.Errorf("mean = %v / %v, want 2", dst.W.At(0, 0), dst.B[1])
	}
}

func TestMeanAggregatorEmpty(t *testing.T) {
	dst := ml.NewModel(2, 2, ml.Softmax)
	if err := mean(dst, nil); !errors.Is(err, ErrAggregate) {
		t.Errorf("empty = %v, want ErrAggregate", err)
	}
}

func TestFedProxTraining(t *testing.T) {
	shards, test := quickShards(t, 10)
	cfg := quickConfig()
	cfg.ProximalMu = 0.1
	e, err := NewEngine(cfg, shards, WithTestSet(test))
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	recs, err := e.Run(MaxRounds(10))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recs[9].TrainLoss >= recs[0].TrainLoss {
		t.Error("FedProx must still reduce loss")
	}
}

func TestFedProxDampsDrift(t *testing.T) {
	// With a large µ the local models stay near the global snapshot, so the
	// post-round global step is smaller than plain FedAvg's.
	shards, _ := quickShards(t, 10)
	driftAfterOneRound := func(mu float64) float64 {
		cfg := quickConfig()
		cfg.ProximalMu = mu
		e, err := NewEngine(cfg, shards)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		before := e.Global().Clone()
		if _, err := e.Round(); err != nil {
			t.Fatalf("Round: %v", err)
		}
		return e.Global().ParamDistance(before)
	}
	plain := driftAfterOneRound(0)
	proximal := driftAfterOneRound(5)
	if proximal >= plain {
		t.Errorf("µ=5 drift %v not below plain drift %v", proximal, plain)
	}
}

func TestConfigRejectsNegativeMu(t *testing.T) {
	cfg := quickConfig()
	cfg.ProximalMu = -1
	if err := cfg.Validate(10); !errors.Is(err, ErrConfig) {
		t.Errorf("negative mu = %v, want ErrConfig", err)
	}
}
