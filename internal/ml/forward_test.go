package ml

import (
	"errors"
	"math"
	"testing"

	"eefei/internal/dataset"
	"eefei/internal/mat"
)

// The per-sample sequential reference the batched forward pass must match bit
// for bit: one Model.Logits / Model.Probabilities call per row, exactly the
// formulation the pre-GEMM code used.

// refLossSum sums per-sample losses over rows [lo, hi) via the per-sample path.
func refLossSum(t *testing.T, m *Model, d *dataset.Dataset, lo, hi int) float64 {
	t.Helper()
	probs := make([]float64, m.Classes())
	var total float64
	for i := lo; i < hi; i++ {
		if err := m.Probabilities(probs, d.X.Row(i)); err != nil {
			t.Fatalf("Probabilities(%d): %v", i, err)
		}
		total += sampleLoss(m.Act, probs, d.Labels[i])
	}
	return total
}

// refHits counts correct argmax-over-logits predictions via the per-sample path.
func refHits(t *testing.T, m *Model, d *dataset.Dataset, lo, hi int) int {
	t.Helper()
	scores := make([]float64, m.Classes())
	hits := 0
	for i := lo; i < hi; i++ {
		if err := m.Logits(scores, d.X.Row(i)); err != nil {
			t.Fatalf("Logits(%d): %v", i, err)
		}
		if mat.ArgMax(scores) == d.Labels[i] {
			hits++
		}
	}
	return hits
}

// refGradient is the sequential per-sample gradient accumulation (the
// pre-GEMM gradientRows): probabilities per row, then one Axpy per class with
// coefficient delta·invN, and the matching bias update.
func refGradient(t *testing.T, m *Model, d *dataset.Dataset, rows []int, grad *Model) float64 {
	t.Helper()
	n := d.Len()
	if rows != nil {
		n = len(rows)
	}
	probs := make([]float64, m.Classes())
	var totalLoss float64
	invN := 1 / float64(n)
	for ii := 0; ii < n; ii++ {
		i := ii
		if rows != nil {
			i = rows[ii]
		}
		x := d.X.Row(i)
		if err := m.Probabilities(probs, x); err != nil {
			t.Fatalf("Probabilities(%d): %v", i, err)
		}
		y := d.Labels[i]
		totalLoss += sampleLoss(m.Act, probs, y)
		for c, p := range probs {
			delta := p
			if c == y {
				delta = p - 1
			}
			mat.Axpy(grad.W.Row(c), delta*invN, x)
			grad.B[c] += delta * invN
		}
	}
	return totalLoss * invN
}

// forwardShapes exercises every block regime: sub-chunk, exact chunk,
// chunk+tail, tails of 1–3 rows past the 4-row micro-kernel blocks.
var forwardShapes = []int{1, 3, 4, 5, 255, 256, 257, 1200}

func forwardFixture(t testing.TB, samples int, act Activation) (*Model, *dataset.Dataset) {
	t.Helper()
	cfg := dataset.QuickSyntheticConfig()
	if samples < 10*cfg.Classes {
		cfg.Classes = 3
	}
	cfg.Samples = samples
	d, err := dataset.Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	m := NewModel(d.Classes, d.Dim(), act)
	rng := mat.NewRNG(uint64(samples)*13 + 7)
	for i := range m.W.RawData() {
		m.W.RawData()[i] = 0.05 * rng.Norm()
	}
	for i := range m.B {
		m.B[i] = 0.01 * rng.Norm()
	}
	return m, d
}

func TestForwardRowRangeBitIdenticalToPerSampleReference(t *testing.T) {
	for _, act := range []Activation{Softmax, Sigmoid} {
		for _, samples := range forwardShapes {
			m, d := forwardFixture(t, samples, act)
			var sc fwdScratch
			lossSum, hits, err := forwardRowRange(m, d, 0, d.Len(), &sc, true, true)
			if err != nil {
				t.Fatalf("%v/%d: forwardRowRange: %v", act, samples, err)
			}
			wantLoss := refLossSum(t, m, d, 0, d.Len())
			if math.Float64bits(lossSum) != math.Float64bits(wantLoss) {
				t.Errorf("%v/%d: batched loss sum %v differs bitwise from per-sample reference %v",
					act, samples, lossSum, wantLoss)
			}
			if want := refHits(t, m, d, 0, d.Len()); hits != want {
				t.Errorf("%v/%d: batched hits = %d, want %d", act, samples, hits, want)
			}
			// Sub-range pass (offset into the dataset) through the same scratch.
			if samples > 5 {
				lo, hi := 2, samples-1
				lossSum, hits, err = forwardRowRange(m, d, lo, hi, &sc, true, true)
				if err != nil {
					t.Fatalf("%v/%d: sub-range: %v", act, samples, err)
				}
				if math.Float64bits(lossSum) != math.Float64bits(refLossSum(t, m, d, lo, hi)) {
					t.Errorf("%v/%d: sub-range loss differs from reference", act, samples)
				}
				if hits != refHits(t, m, d, lo, hi) {
					t.Errorf("%v/%d: sub-range hits differ from reference", act, samples)
				}
			}
		}
	}
}

func TestEvaluatorMetricsBitIdenticalToSeparatePasses(t *testing.T) {
	for _, act := range []Activation{Softmax, Sigmoid} {
		m, d := evalFixture(t, act)
		for _, workers := range []int{1, 2, 3, 8, 100} {
			ev := NewEvaluator(workers)
			wantLoss, err := ev.Loss(m, d)
			if err != nil {
				t.Fatalf("Loss: %v", err)
			}
			wantAcc, err := ev.Accuracy(m, d)
			if err != nil {
				t.Fatalf("Accuracy: %v", err)
			}
			for pass := 0; pass < 2; pass++ { // second pass exercises scratch reuse
				loss, acc, err := ev.Metrics(m, d)
				if err != nil {
					t.Fatalf("Metrics: %v", err)
				}
				if math.Float64bits(loss) != math.Float64bits(wantLoss) {
					t.Errorf("%v workers=%d pass %d: fused loss %v differs bitwise from separate pass %v",
						act, workers, pass, loss, wantLoss)
				}
				if math.Float64bits(acc) != math.Float64bits(wantAcc) {
					t.Errorf("%v workers=%d pass %d: fused accuracy %v differs bitwise from separate pass %v",
						act, workers, pass, acc, wantAcc)
				}
			}
		}
	}
}

func TestEvaluatorMetricsErrors(t *testing.T) {
	m, d := evalFixture(t, Softmax)
	bad := NewModel(d.Classes, d.Dim()+1, Softmax)
	if _, _, err := NewEvaluator(1).Metrics(bad, d); !errors.Is(err, ErrModelShape) {
		t.Errorf("dimension mismatch = %v, want ErrModelShape", err)
	}
	if _, _, err := NewEvaluator(1).Metrics(m, &dataset.Dataset{X: mat.NewDense(0, d.Dim()), Classes: d.Classes}); !errors.Is(err, dataset.ErrEmpty) {
		t.Errorf("empty dataset = %v, want ErrEmpty", err)
	}
}

func TestPredictBatchBitIdenticalToPerSamplePredict(t *testing.T) {
	for _, samples := range forwardShapes {
		m, d := forwardFixture(t, samples, Softmax)
		got, err := m.PredictBatch(d)
		if err != nil {
			t.Fatalf("PredictBatch(%d): %v", samples, err)
		}
		for i := 0; i < d.Len(); i++ {
			want, err := m.Predict(d.X.Row(i))
			if err != nil {
				t.Fatalf("Predict(%d): %v", i, err)
			}
			if got[i] != want {
				t.Fatalf("samples=%d row %d: PredictBatch = %d, Predict = %d", samples, i, got[i], want)
			}
		}
	}
}

func TestGradientBitIdenticalToPerSampleReference(t *testing.T) {
	for _, act := range []Activation{Softmax, Sigmoid} {
		for _, samples := range forwardShapes {
			m, d := forwardFixture(t, samples, act)
			want := NewModel(m.Classes(), m.Features(), act)
			wantLoss := refGradient(t, m, d, nil, want)
			got := NewModel(m.Classes(), m.Features(), act)
			gotLoss, err := Gradient(m, d, got)
			if err != nil {
				t.Fatalf("%v/%d: Gradient: %v", act, samples, err)
			}
			if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
				t.Errorf("%v/%d: batched loss %v differs bitwise from reference %v", act, samples, gotLoss, wantLoss)
			}
			gw, ww := got.W.RawData(), want.W.RawData()
			for i := range gw {
				if math.Float64bits(gw[i]) != math.Float64bits(ww[i]) {
					t.Fatalf("%v/%d: grad.W[%d] = %v differs bitwise from reference %v", act, samples, i, gw[i], ww[i])
				}
			}
			for i := range got.B {
				if math.Float64bits(got.B[i]) != math.Float64bits(want.B[i]) {
					t.Fatalf("%v/%d: grad.B[%d] = %v differs bitwise from reference %v", act, samples, i, got.B[i], want.B[i])
				}
			}
		}
	}
}

func TestGradientRowsSubsetBitIdenticalToReference(t *testing.T) {
	m, d := forwardFixture(t, 700, Softmax)
	// A shuffled subset spanning several chunks, as a mini-batch pass sees.
	rng := mat.NewRNG(99)
	rows := rng.Sample(d.Len(), 600)
	want := NewModel(m.Classes(), m.Features(), m.Act)
	wantLoss := refGradient(t, m, d, rows, want)
	got := NewModel(m.Classes(), m.Features(), m.Act)
	var sc fwdScratch
	gotLoss, err := gradientRows(m, d, rows, got, &sc)
	if err != nil {
		t.Fatalf("gradientRows: %v", err)
	}
	if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
		t.Errorf("subset loss %v differs bitwise from reference %v", gotLoss, wantLoss)
	}
	gw, ww := got.W.RawData(), want.W.RawData()
	for i := range gw {
		if math.Float64bits(gw[i]) != math.Float64bits(ww[i]) {
			t.Fatalf("subset grad.W[%d] differs bitwise from reference", i)
		}
	}
	for i := range got.B {
		if math.Float64bits(got.B[i]) != math.Float64bits(want.B[i]) {
			t.Fatalf("subset grad.B[%d] differs bitwise from reference", i)
		}
	}
}

func TestGradientRowsRejectsOutOfRangeRows(t *testing.T) {
	m, d := forwardFixture(t, 20, Softmax)
	grad := NewModel(m.Classes(), m.Features(), m.Act)
	var sc fwdScratch
	for _, bad := range [][]int{{0, 1, d.Len()}, {-1}, {0, 500}} {
		if _, err := gradientRows(m, d, bad, grad, &sc); !errors.Is(err, ErrModelShape) {
			t.Errorf("rows %v = %v, want ErrModelShape", bad, err)
		}
	}
}

// TestEvaluatorWarmPassesAllocationFree pins the scratch-ownership contract:
// once an Evaluator has run each pass once, further passes (including the
// fused Metrics pass) allocate nothing.
func TestEvaluatorWarmPassesAllocationFree(t *testing.T) {
	m, d := evalFixture(t, Softmax)
	ev := NewEvaluator(1)
	if _, err := ev.Loss(m, d); err != nil {
		t.Fatalf("warm-up Loss: %v", err)
	}
	if _, _, err := ev.Metrics(m, d); err != nil {
		t.Fatalf("warm-up Metrics: %v", err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ev.Loss(m, d); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Accuracy(m, d); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ev.Metrics(m, d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm evaluator passes allocate %v per run, want 0", allocs)
	}
}

func BenchmarkEvaluatorMetrics(b *testing.B) {
	m, d := evalFixture(b, Softmax)
	ev := NewEvaluator(1)
	if _, _, err := ev.Metrics(m, d); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ev.Metrics(m, d); err != nil {
			b.Fatalf("Metrics: %v", err)
		}
	}
}
