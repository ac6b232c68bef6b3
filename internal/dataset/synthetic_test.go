package dataset

import (
	"math"
	"runtime"
	"testing"

	"eefei/internal/mat"
)

func TestSynthesizeShape(t *testing.T) {
	cfg := QuickSyntheticConfig()
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if d.Len() != cfg.Samples {
		t.Errorf("Len = %d, want %d", d.Len(), cfg.Samples)
	}
	if d.Dim() != cfg.Side*cfg.Side {
		t.Errorf("Dim = %d, want %d", d.Dim(), cfg.Side*cfg.Side)
	}
	if err := d.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSynthesizePixelRange(t *testing.T) {
	d, err := Synthesize(QuickSyntheticConfig())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	for _, v := range d.X.RawData() {
		if v < 0 || v > 1 {
			t.Fatalf("pixel %v outside [0,1]", v)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	cfg := QuickSyntheticConfig()
	a, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	b, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	if !a.X.Equal(b.X, 0) {
		t.Error("same config must produce identical pixels")
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same config must produce identical labels")
		}
	}
}

func TestSynthesizeSeedsDiffer(t *testing.T) {
	cfg := QuickSyntheticConfig()
	a, _ := Synthesize(cfg)
	cfg.Seed = 2
	b, _ := Synthesize(cfg)
	if a.X.Equal(b.X, 0) {
		t.Error("different seeds must produce different pixels")
	}
}

func TestSynthesizeBalancedClasses(t *testing.T) {
	d, err := Synthesize(QuickSyntheticConfig())
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	counts := classCounts(d)
	want := d.Len() / d.Classes
	for c, n := range counts {
		if n != want {
			t.Errorf("class %d count = %d, want %d", c, n, want)
		}
	}
}

func TestSynthesizeRejectsBadConfig(t *testing.T) {
	bad := []SyntheticConfig{
		{Samples: 0, Classes: 10, Side: 8},
		{Samples: 10, Classes: 0, Side: 8},
		{Samples: 10, Classes: 10, Side: 0},
	}
	for _, cfg := range bad {
		if _, err := Synthesize(cfg); err == nil {
			t.Errorf("config %+v must be rejected", cfg)
		}
	}
}

func TestSynthesizeClassesAreSeparable(t *testing.T) {
	// Nearest-prototype classification on held-out samples should beat 70%:
	// the prototypes plus bounded noise make classes mostly separable, the
	// precondition for the paper's ~92% logistic-regression accuracy.
	cfg := QuickSyntheticConfig()
	cfg.Samples = 1000
	train, test, err := SynthesizePair(cfg, cfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	// Class means from train.
	means := mat.NewDense(cfg.Classes, train.Dim())
	counts := make([]float64, cfg.Classes)
	for i := 0; i < train.Len(); i++ {
		mat.Axpy(means.Row(train.Labels[i]), 1, train.X.Row(i))
		counts[train.Labels[i]]++
	}
	for c := 0; c < cfg.Classes; c++ {
		mat.Scale(means.Row(c), 1/counts[c])
	}
	correct := 0
	diff := make([]float64, train.Dim())
	for i := 0; i < test.Len(); i++ {
		best, bestDist := -1, math.Inf(1)
		for c := 0; c < cfg.Classes; c++ {
			for j, m := range means.Row(c) {
				diff[j] = test.X.At(i, j) - m
			}
			if d := mat.Norm2(diff); d < bestDist {
				best, bestDist = c, d
			}
		}
		if best == test.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.70 {
		t.Errorf("nearest-prototype accuracy = %.3f, want >= 0.70", acc)
	}
}

func TestSynthesizePairSharesPrototypes(t *testing.T) {
	// Train/test class means must be close (same prototypes), while the
	// individual samples differ (independent noise).
	cfg := QuickSyntheticConfig()
	cfg.Samples = 1000
	train, test, err := SynthesizePair(cfg, cfg)
	if err != nil {
		t.Fatalf("SynthesizePair: %v", err)
	}
	if train.X.Equal(test.X, 1e-9) {
		t.Error("train and test must not be identical")
	}
	trainMean := classMean(train, 0)
	mat.Axpy(trainMean, -1, classMean(test, 0))
	if dist := mat.Norm2(trainMean); dist > 0.1*float64(train.Dim()) {
		t.Errorf("class-0 means differ by %v; prototypes not shared?", dist)
	}
}

// parallelPair is the Full tier's split shape: a train set and a smaller
// test set, neither a multiple of the 256-row chunk, to cover the tails.
func parallelPair(t *testing.T, workers int) (*Dataset, *Dataset) {
	t.Helper()
	train, test := QuickSyntheticConfig(), QuickSyntheticConfig()
	train.Samples, test.Samples = 1003, 517
	tr, te, err := SynthesizePairParallel(train, test, workers)
	if err != nil {
		t.Fatalf("SynthesizePairParallel(%d): %v", workers, err)
	}
	return tr, te
}

func TestSynthesizeParallelBitIdenticalAcrossWorkers(t *testing.T) {
	baseTrain, baseTest := parallelPair(t, 1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 0} { // 0 = GOMAXPROCS
		train, test := parallelPair(t, workers)
		for _, half := range []struct {
			name      string
			got, want *Dataset
		}{{"train", train, baseTrain}, {"test", test, baseTest}} {
			if !half.got.X.Equal(half.want.X, 0) {
				t.Fatalf("workers=%d %s pixels differ from workers=1", workers, half.name)
			}
			for i := range half.got.Labels {
				if half.got.Labels[i] != half.want.Labels[i] {
					t.Fatalf("workers=%d %s labels differ from workers=1", workers, half.name)
				}
			}
		}
	}
}

func TestSynthesizeParallelBalancedAndValid(t *testing.T) {
	train, test := parallelPair(t, 4)
	for _, d := range []*Dataset{train, test} {
		if err := d.Validate(); err != nil {
			t.Errorf("Validate: %v", err)
		}
		for c, n := range classCounts(d) {
			want := d.Len() / d.Classes // labels cycle 0..Classes-1
			if c < d.Len()%d.Classes {
				want++
			}
			if n != want {
				t.Errorf("%d samples: class %d count = %d, want %d", d.Len(), c, n, want)
			}
		}
		for _, v := range d.X.RawData() {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %v outside [0,1]", v)
			}
		}
	}
}

func TestSynthesizePairParallelSharesPrototypes(t *testing.T) {
	cfg := QuickSyntheticConfig()
	cfg.Samples = 1000
	train, test, err := SynthesizePairParallel(cfg, cfg, 4)
	if err != nil {
		t.Fatalf("SynthesizePairParallel: %v", err)
	}
	if train.X.Equal(test.X, 1e-9) {
		t.Error("train and test must not be identical")
	}
	trainMean := classMean(train, 0)
	mat.Axpy(trainMean, -1, classMean(test, 0))
	if dist := mat.Norm2(trainMean); dist > 0.1*float64(train.Dim()) {
		t.Errorf("class-0 means differ by %v; prototypes not shared?", dist)
	}
}

func TestSynthesizePairParallelDeterministic(t *testing.T) {
	cfg := QuickSyntheticConfig()
	a1, b1, err := SynthesizePairParallel(cfg, cfg, 2)
	if err != nil {
		t.Fatalf("SynthesizePairParallel: %v", err)
	}
	a2, b2, err := SynthesizePairParallel(cfg, cfg, 7)
	if err != nil {
		t.Fatalf("SynthesizePairParallel: %v", err)
	}
	if !a1.X.Equal(a2.X, 0) || !b1.X.Equal(b2.X, 0) {
		t.Error("pair synthesis must be bit-identical across worker counts")
	}
}

func TestSynthesizeParallelRejectsBadConfig(t *testing.T) {
	bad := []SyntheticConfig{
		{Samples: 0, Classes: 10, Side: 8},
		{Samples: 10, Classes: 0, Side: 8},
		{Samples: 10, Classes: 10, Side: 0},
	}
	for _, cfg := range bad {
		if _, _, err := SynthesizePairParallel(cfg, QuickSyntheticConfig(), 2); err == nil {
			t.Errorf("train config %+v must be rejected", cfg)
		}
		if _, _, err := SynthesizePairParallel(QuickSyntheticConfig(), cfg, 2); err == nil {
			t.Errorf("test config %+v must be rejected", cfg)
		}
	}
}

func classMean(d *Dataset, class int) []float64 {
	mean := make([]float64, d.Dim())
	var n float64
	for i := 0; i < d.Len(); i++ {
		if d.Labels[i] != class {
			continue
		}
		mat.Axpy(mean, 1, d.X.Row(i))
		n++
	}
	if n > 0 {
		mat.Scale(mean, 1/n)
	}
	return mean
}
