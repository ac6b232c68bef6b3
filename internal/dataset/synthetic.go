package dataset

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"eefei/internal/mat"
)

// SyntheticConfig controls the synthetic MNIST-like generator.
//
// The generator draws, per class, a fixed "prototype digit" — a sparse
// blob pattern on a Side×Side grid — and then produces samples as
// prototype + pixel noise, clipped to [0, 1] like normalized gray-scale
// images. The task is linearly separable up to the noise level, matching the
// regime where multinomial logistic regression reaches the paper's ~92%
// accuracy after enough federated rounds.
type SyntheticConfig struct {
	// Samples is the total number of samples to generate.
	Samples int
	// Classes is the number of digit classes (paper: 10).
	Classes int
	// Side is the image side length (paper: 28, features = Side²). Smaller
	// sides make tests fast while preserving the learning dynamics.
	Side int
	// Noise is the per-pixel Gaussian noise standard deviation. Around
	// 0.25–0.35 yields accuracy curves shaped like the paper's Fig. 4.
	Noise float64
	// BlobsPerClass is how many bright blobs compose each prototype.
	BlobsPerClass int
	// Seed makes generation fully deterministic.
	Seed uint64
}

// DefaultSyntheticConfig mirrors the paper's MNIST setup at full scale:
// 28×28 images, 10 classes.
func DefaultSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Samples:       60000,
		Classes:       10,
		Side:          28,
		Noise:         0.30,
		BlobsPerClass: 4,
		Seed:          1,
	}
}

// QuickSyntheticConfig is a reduced-scale config for tests and quick benches:
// 8×8 images keep every matrix 64-wide so federated training runs in
// milliseconds while exhibiting the same convergence trade-offs.
func QuickSyntheticConfig() SyntheticConfig {
	return SyntheticConfig{
		Samples:       2000,
		Classes:       10,
		Side:          8,
		Noise:         0.30,
		BlobsPerClass: 3,
		Seed:          1,
	}
}

// Synthesize generates a dataset according to cfg. Identical configs produce
// identical datasets.
func Synthesize(cfg SyntheticConfig) (*Dataset, error) {
	if cfg.Samples <= 0 || cfg.Classes <= 0 || cfg.Side <= 0 {
		return nil, fmt.Errorf("dataset: invalid synthetic config %+v", cfg)
	}
	if cfg.BlobsPerClass <= 0 {
		cfg.BlobsPerClass = 3
	}
	dim := cfg.Side * cfg.Side
	protoRNG := mat.NewRNG(cfg.Seed)
	prototypes := make([]*mat.Dense, cfg.Classes)
	for c := range prototypes {
		prototypes[c] = classPrototype(protoRNG, cfg.Side, cfg.BlobsPerClass)
	}

	sampleRNG := protoRNG.Split()
	out := &Dataset{
		X:       mat.NewDense(cfg.Samples, dim),
		Labels:  make([]int, cfg.Samples),
		Classes: cfg.Classes,
	}
	for i := 0; i < cfg.Samples; i++ {
		c := i % cfg.Classes // perfectly balanced classes, like MNIST approximately is
		out.Labels[i] = c
		row := out.X.Row(i)
		proto := prototypes[c].RawData()
		for j := range row {
			row[j] = mat.Clamp(proto[j]+sampleRNG.NormScaled(0, cfg.Noise), 0, 1)
		}
	}
	// Shuffle so that class order carries no information for partitioners.
	out.Shuffle(sampleRNG.Split())
	return out, nil
}

// SynthesizePair generates a train/test split the way the paper uses MNIST
// (60k train, 10k test): the test set comes from the same prototypes with an
// independent noise stream.
func SynthesizePair(train, test SyntheticConfig) (*Dataset, *Dataset, error) {
	if train.Seed == test.Seed {
		// Same seed would reuse the sample noise stream; the prototypes must
		// match but the noise must not, so nudge the test stream.
		test.Seed = train.Seed
	}
	tr, err := Synthesize(train)
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize train: %w", err)
	}
	// The test set must share prototypes: regenerate with the same seed and
	// discard the train-noise prefix by drawing a fresh split stream.
	te, err := synthesizeWithOffset(test, train.Seed, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize test: %w", err)
	}
	return tr, te, nil
}

// synthesizeWithOffset is Synthesize with the same prototypes as seed but an
// offset noise stream, so train and test sets are i.i.d. draws from the same
// class-conditional distribution.
func synthesizeWithOffset(cfg SyntheticConfig, protoSeed uint64, offset uint64) (*Dataset, error) {
	if cfg.Samples <= 0 || cfg.Classes <= 0 || cfg.Side <= 0 {
		return nil, fmt.Errorf("dataset: invalid synthetic config %+v", cfg)
	}
	if cfg.BlobsPerClass <= 0 {
		cfg.BlobsPerClass = 3
	}
	dim := cfg.Side * cfg.Side
	protoRNG := mat.NewRNG(protoSeed)
	prototypes := make([]*mat.Dense, cfg.Classes)
	for c := range prototypes {
		prototypes[c] = classPrototype(protoRNG, cfg.Side, cfg.BlobsPerClass)
	}
	sampleRNG := mat.NewRNG(protoSeed ^ (0xabcdef<<8 + offset))
	out := &Dataset{
		X:       mat.NewDense(cfg.Samples, dim),
		Labels:  make([]int, cfg.Samples),
		Classes: cfg.Classes,
	}
	for i := 0; i < cfg.Samples; i++ {
		c := i % cfg.Classes
		out.Labels[i] = c
		row := out.X.Row(i)
		proto := prototypes[c].RawData()
		for j := range row {
			row[j] = mat.Clamp(proto[j]+sampleRNG.NormScaled(0, cfg.Noise), 0, 1)
		}
	}
	out.Shuffle(sampleRNG.Split())
	return out, nil
}

// SynthesizePairParallel generates the same class-conditional distribution
// as SynthesizePair, but each row draws its noise from an independent stream
// derived from (seed, stream, row), so generation fans out across workers
// and is bit-identical for every worker count (including 1). Train and test
// share prototypes (both derive them from train.Seed) but draw disjoint
// noise streams. The stream layout necessarily differs from SynthesizePair's
// sequential walk, so the two generators produce different — equally
// distributed — datasets for the same configs; large-N callers (the Full
// experiment tier, 60k×784) use this path, the committed quick/paper
// artifacts keep the original. workers <= 0 selects GOMAXPROCS.
func SynthesizePairParallel(train, test SyntheticConfig, workers int) (*Dataset, *Dataset, error) {
	tr, err := synthesizeRowStreams(train, train.Seed, 0, workers)
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize train: %w", err)
	}
	te, err := synthesizeRowStreams(test, train.Seed, 1, workers)
	if err != nil {
		return nil, nil, fmt.Errorf("synthesize test: %w", err)
	}
	return tr, te, nil
}

// rowStreamSeed hashes (seed, stream, row) into the seed of that row's
// private noise RNG (SplitMix64 finalizer, same constants as mat.RNG).
func rowStreamSeed(seed, stream, row uint64) uint64 {
	z := seed ^ (stream+1)*0x9e3779b97f4a7c15 ^ row*0xbf58476d1ce4e5b9
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// synthesizeRowStreams fills every row from its own derived RNG; rows are
// claimed in fixed-size chunks off an atomic cursor so any pool size writes
// exactly the same bytes.
func synthesizeRowStreams(cfg SyntheticConfig, protoSeed, stream uint64, workers int) (*Dataset, error) {
	if cfg.Samples <= 0 || cfg.Classes <= 0 || cfg.Side <= 0 {
		return nil, fmt.Errorf("dataset: invalid synthetic config %+v", cfg)
	}
	if cfg.BlobsPerClass <= 0 {
		cfg.BlobsPerClass = 3
	}
	dim := cfg.Side * cfg.Side
	protoRNG := mat.NewRNG(protoSeed)
	prototypes := make([]*mat.Dense, cfg.Classes)
	for c := range prototypes {
		prototypes[c] = classPrototype(protoRNG, cfg.Side, cfg.BlobsPerClass)
	}
	out := &Dataset{
		X:       mat.NewDense(cfg.Samples, dim),
		Labels:  make([]int, cfg.Samples),
		Classes: cfg.Classes,
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	const chunk = 256
	nChunks := (cfg.Samples + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ci := int(cursor.Add(1)) - 1
				if ci >= nChunks {
					return
				}
				lo, hi := ci*chunk, (ci+1)*chunk
				if hi > cfg.Samples {
					hi = cfg.Samples
				}
				for i := lo; i < hi; i++ {
					rng := mat.NewRNG(rowStreamSeed(protoSeed, stream, uint64(i)))
					c := i % cfg.Classes
					out.Labels[i] = c
					row := out.X.Row(i)
					proto := prototypes[c].RawData()
					for j := range row {
						row[j] = mat.Clamp(proto[j]+rng.NormScaled(0, cfg.Noise), 0, 1)
					}
				}
			}
		}()
	}
	wg.Wait()
	out.Shuffle(mat.NewRNG(rowStreamSeed(protoSeed, stream, uint64(cfg.Samples)+0x5157)))
	return out, nil
}

// classPrototype paints BlobsPerClass Gaussian bright blobs at random
// positions on a Side×Side canvas, producing an MNIST-digit-like intensity
// pattern in [0, 1].
func classPrototype(rng *mat.RNG, side, blobs int) *mat.Dense {
	img := mat.NewDense(side, side)
	sigma := float64(side) / 7
	for b := 0; b < blobs; b++ {
		cx := 1 + rng.Float64()*float64(side-2)
		cy := 1 + rng.Float64()*float64(side-2)
		amp := 0.6 + 0.4*rng.Float64()
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				dx := float64(x) - cx
				dy := float64(y) - cy
				v := img.At(y, x) + amp*math.Exp(-(dx*dx+dy*dy)/(2*sigma*sigma))
				img.Set(y, x, mat.Clamp(v, 0, 1))
			}
		}
	}
	return img
}
