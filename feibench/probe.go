package main

import (
	"fmt"
	"runtime"
	"time"

	"eefei/internal/mat"
	"eefei/internal/ml"
)

// probeBatches is how many timed batches each probe takes the median of.
const probeBatches = 5

// timeBatches runs fn in probeBatches batches of at least minBatch each,
// records one span per batch and returns the median time per call.
func timeBatches(tr *tracer, parent int32, name string, minBatch time.Duration, fn func() error) (time.Duration, error) {
	var perCall []float64
	for b := 0; b < probeBatches; b++ {
		id := tr.begin(name, parent)
		t0 := time.Now()
		calls := 0
		for calls == 0 || time.Since(t0) < minBatch {
			if err := fn(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			calls++
		}
		perCall = append(perCall, float64(time.Since(t0))/float64(calls))
		tr.end(id)
	}
	return time.Duration(median(perCall)), nil
}

// probeLayers times the exported kernels a round is built from, on the
// workload's own shapes and data (the traced rep's shards, test set and
// trained global model).
func probeLayers(tr *tracer, sp spec, r rep) (map[string]float64, error) {
	root := tr.begin("probe", -1)
	defer tr.end(root)
	out := map[string]float64{}
	shard, features := r.shards[0], sp.side*sp.side
	const block, classes = 256, 10
	rows := min(block, shard.Len())
	x := shard.X.SliceRows(0, rows)
	logits := mat.NewDense(rows, classes)
	flops := 2 * float64(rows) * classes * float64(features)

	d, err := timeBatches(tr, root, "mat.multt", 20*time.Millisecond, func() error {
		return mat.MulTWorkers(logits, &x, r.global.W, 1)
	})
	if err != nil {
		return nil, err
	}
	out["mat.multt_gflops"] = flops / d.Seconds() / 1e9

	// The backward kernel's deltas are the softmax outputs minus one-hot
	// labels; any dense non-zero block costs the same.
	rng := mat.NewRNG(1)
	deltas := logits.RawData()
	for i := range deltas {
		deltas[i] = rng.Float64() - 0.5
	}
	grad := mat.NewDense(classes, features)
	d, err = timeBatches(tr, root, "mat.addmulta", 20*time.Millisecond, func() error {
		return mat.AddMulTA(grad, logits, &x, 1/float64(rows))
	})
	if err != nil {
		return nil, err
	}
	out["mat.addmulta_gflops"] = flops / d.Seconds() / 1e9

	sgd, err := ml.NewSGD(ml.SGDConfig{LearningRate: sp.lr})
	if err != nil {
		return nil, fmt.Errorf("sgd: %w", err)
	}
	m := r.global.Clone()
	d, err = timeBatches(tr, root, "ml.sgd_epoch", 0, func() error {
		_, err := sgd.TrainFinal(m, shard, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["ml.sgd_epoch_ms"] = ms(d)

	ev := ml.NewEvaluator(runtime.GOMAXPROCS(0))
	d, err = timeBatches(tr, root, "ml.eval", 0, func() error {
		if _, _, err := ev.Metrics(r.global, r.test); err != nil {
			return err
		}
		for _, s := range r.shards {
			if _, err := ev.Loss(r.global, s); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["ml.eval_ms"] = ms(d)

	buf := make([]byte, 0, ml.QuantizedSize(classes, features, ml.Quant8))
	d, err = timeBatches(tr, root, "ml.quantize", 5*time.Millisecond, func() error {
		var err error
		buf, err = ml.AppendQuantized(buf[:0], r.global, ml.Quant8)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["ml.quantize_us"] = float64(d) / float64(time.Microsecond)
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
