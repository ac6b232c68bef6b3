package ml

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"eefei/internal/mat"
)

func randomModel(seed uint64, classes, features int) *Model {
	rng := mat.NewRNG(seed)
	m := NewModel(classes, features, Softmax)
	for i := range m.W.RawData() {
		m.W.RawData()[i] = rng.NormScaled(0, 0.5)
	}
	for i := range m.B {
		m.B[i] = rng.NormScaled(0, 0.5)
	}
	return m
}

func TestQuantizeRoundTripWithinBound(t *testing.T) {
	for _, bits := range []QuantBits{Quant8, Quant16} {
		m := randomModel(1, 10, 64)
		data, err := QuantizeModel(m, bits)
		if err != nil {
			t.Fatalf("Quantize(%d): %v", bits, err)
		}
		back, err := DequantizeModel(data)
		if err != nil {
			t.Fatalf("Dequantize(%d): %v", bits, err)
		}
		if back.Classes() != 10 || back.Features() != 64 || back.Act != Softmax {
			t.Fatalf("shape lost: %dx%d %v", back.Classes(), back.Features(), back.Act)
		}
		bound := MaxQuantError(m, bits) * 1.01
		w, bw := m.W.RawData(), back.W.RawData()
		for i := range w {
			if math.Abs(w[i]-bw[i]) > bound {
				t.Fatalf("bits=%d: weight %d error %v exceeds bound %v",
					bits, i, math.Abs(w[i]-bw[i]), bound)
			}
		}
		for i := range m.B {
			if math.Abs(m.B[i]-back.B[i]) > bound {
				t.Fatalf("bits=%d: bias %d error exceeds bound", bits, i)
			}
		}
	}
}

func TestQuantize16TighterThan8(t *testing.T) {
	m := randomModel(2, 5, 20)
	e8 := MaxQuantError(m, Quant8)
	e16 := MaxQuantError(m, Quant16)
	if e16 >= e8 {
		t.Errorf("16-bit bound %v not tighter than 8-bit %v", e16, e8)
	}
	// Actual errors follow the same ordering.
	dist := func(bits QuantBits) float64 {
		data, err := QuantizeModel(m, bits)
		if err != nil {
			t.Fatalf("Quantize: %v", err)
		}
		back, err := DequantizeModel(data)
		if err != nil {
			t.Fatalf("Dequantize: %v", err)
		}
		return m.ParamDistance(back)
	}
	if dist(Quant16) >= dist(Quant8) {
		t.Error("16-bit reconstruction not better than 8-bit")
	}
}

func TestQuantizeZeroModel(t *testing.T) {
	m := NewModel(3, 4, Sigmoid)
	data, err := QuantizeModel(m, Quant8)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	back, err := DequantizeModel(data)
	if err != nil {
		t.Fatalf("Dequantize: %v", err)
	}
	if back.ParamDistance(m) != 0 {
		t.Error("zero model must round-trip exactly")
	}
	if back.Act != Sigmoid {
		t.Error("activation lost")
	}
}

func TestQuantizeRejectsBadInput(t *testing.T) {
	m := randomModel(3, 2, 2)
	if _, err := QuantizeModel(m, QuantBits(12)); !errors.Is(err, ErrQuantize) {
		t.Errorf("bad width = %v, want ErrQuantize", err)
	}
	m.W.Set(0, 0, math.NaN())
	if _, err := QuantizeModel(m, Quant8); !errors.Is(err, ErrQuantize) {
		t.Errorf("NaN = %v, want ErrQuantize", err)
	}
}

func TestDequantizeRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"short":     {1, 2, 3},
		"bad magic": append([]byte("XXXX"), make([]byte, 30)...),
	}
	for name, data := range cases {
		if _, err := DequantizeModel(data); !errors.Is(err, ErrQuantize) {
			t.Errorf("%s = %v, want ErrQuantize", name, err)
		}
	}
	// Valid header, truncated body.
	m := randomModel(4, 2, 3)
	data, err := QuantizeModel(m, Quant8)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	if _, err := DequantizeModel(data[:len(data)-2]); !errors.Is(err, ErrQuantize) {
		t.Errorf("truncated = %v, want ErrQuantize", err)
	}
	// Trailing junk.
	if _, err := DequantizeModel(append(data, 0)); !errors.Is(err, ErrQuantize) {
		t.Errorf("trailing = %v, want ErrQuantize", err)
	}
}

func TestCompressionRatio(t *testing.T) {
	m := NewModel(10, 784, Softmax)
	r8 := float64(m.EncodedSize()) / float64(QuantizedSize(10, 784, Quant8))
	r16 := float64(m.EncodedSize()) / float64(QuantizedSize(10, 784, Quant16))
	if r8 < 7.5 || r8 > 8.5 {
		t.Errorf("8-bit ratio = %v, want ≈8", r8)
	}
	if r16 < 3.7 || r16 > 4.3 {
		t.Errorf("16-bit ratio = %v, want ≈4", r16)
	}
	data, err := QuantizeModel(m, Quant8)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	if len(data) != QuantizedSize(10, 784, Quant8) {
		t.Errorf("payload %d bytes, QuantizedSize says %d", len(data), QuantizedSize(10, 784, Quant8))
	}
}

func TestQuantizedModelStillAccurate(t *testing.T) {
	// Train a model, quantize at 8 bits, and verify the accuracy drop on the
	// training toy set is negligible — the premise of the upload-energy
	// ablation.
	d := twoClassToy(t)
	m := NewModel(2, 2, Softmax)
	sgd, err := NewSGD(SGDConfig{LearningRate: 0.5})
	if err != nil {
		t.Fatalf("NewSGD: %v", err)
	}
	if _, err := sgd.Train(m, d, 100); err != nil {
		t.Fatalf("Train: %v", err)
	}
	data, err := QuantizeModel(m, Quant8)
	if err != nil {
		t.Fatalf("Quantize: %v", err)
	}
	back, err := DequantizeModel(data)
	if err != nil {
		t.Fatalf("Dequantize: %v", err)
	}
	accFull, err := Accuracy(m, d)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	accQuant, err := Accuracy(back, d)
	if err != nil {
		t.Fatalf("Accuracy: %v", err)
	}
	if accQuant < accFull-1e-9 {
		t.Errorf("quantized accuracy %v below full-precision %v", accQuant, accFull)
	}
}

// Property: round-trip error never exceeds the documented bound for random
// shapes and widths.
func TestQuantErrorBoundProperty(t *testing.T) {
	f := func(seed uint64, wide bool) bool {
		bits := Quant8
		if wide {
			bits = Quant16
		}
		rng := mat.NewRNG(seed)
		m := randomModel(seed, 1+rng.Intn(6), 1+rng.Intn(30))
		data, err := QuantizeModel(m, bits)
		if err != nil {
			return false
		}
		back, err := DequantizeModel(data)
		if err != nil {
			return false
		}
		bound := MaxQuantError(m, bits) * 1.01
		w, bw := m.W.RawData(), back.W.RawData()
		for i := range w {
			if math.Abs(w[i]-bw[i]) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
