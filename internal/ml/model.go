// Package ml implements the learning substrate the paper trains: a linear
// multi-class classifier (multinomial logistic regression with a softmax
// head, or the paper's Table-II "sigmoid" one-vs-all head), full-batch and
// mini-batch SGD with multiplicative learning-rate decay, the associated
// losses and metrics, and deterministic binary (de)serialization of model
// parameters for the network protocol.
package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"eefei/internal/dataset"
	"eefei/internal/mat"
)

// Activation selects the classifier head.
type Activation int

const (
	// Softmax is standard multinomial logistic regression trained with
	// cross-entropy.
	Softmax Activation = iota + 1
	// Sigmoid is the one-vs-all head the paper's Table II lists, trained
	// with per-class binary cross-entropy.
	Sigmoid
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Softmax:
		return "softmax"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// valid reports whether a is one of the heads the forward and loss paths
// implement; they treat any other value as softmax, so decoders reject it.
func (a Activation) valid() bool { return a == Softmax || a == Sigmoid }

// ErrModelShape is returned (wrapped) when model and data dimensions clash.
var ErrModelShape = errors.New("ml: model/data dimension mismatch")

// Model is a linear classifier: logits = W·x + b with W of shape
// classes×features.
type Model struct {
	// W is the classes×features weight matrix.
	W *mat.Dense
	// B is the per-class bias vector.
	B []float64
	// Act selects the head used by Predict and the losses.
	Act Activation
}

// NewModel returns a zero-initialized linear model. Zero init is the
// convention for convex logistic regression (no symmetry breaking needed).
func NewModel(classes, features int, act Activation) *Model {
	return &Model{
		W:   mat.NewDense(classes, features),
		B:   make([]float64, classes),
		Act: act,
	}
}

// Classes returns the number of output classes.
func (m *Model) Classes() int { return m.W.Rows() }

// Features returns the input dimension.
func (m *Model) Features() int { return m.W.Cols() }

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	return &Model{W: m.W.Clone(), B: mat.Clone(m.B), Act: m.Act}
}

// Zero resets all parameters to zero in place.
func (m *Model) Zero() {
	m.W.Zero()
	for i := range m.B {
		m.B[i] = 0
	}
}

// CopyFrom copies parameters from src; shapes must match.
func (m *Model) CopyFrom(src *Model) error {
	if err := m.W.CopyFrom(src.W); err != nil {
		return fmt.Errorf("copy weights: %w", err)
	}
	if len(m.B) != len(src.B) {
		return fmt.Errorf("copy %d biases into %d: %w", len(src.B), len(m.B), ErrModelShape)
	}
	copy(m.B, src.B)
	m.Act = src.Act
	return nil
}

// AddScaled adds s·other to the parameters in place.
func (m *Model) AddScaled(s float64, other *Model) error {
	if err := m.W.AddScaled(s, other.W); err != nil {
		return fmt.Errorf("add weights: %w", err)
	}
	if len(m.B) != len(other.B) {
		return fmt.Errorf("add %d biases into %d: %w", len(other.B), len(m.B), ErrModelShape)
	}
	mat.Axpy(m.B, s, other.B)
	return nil
}

// Scale multiplies all parameters by s in place.
func (m *Model) Scale(s float64) {
	m.W.Scale(s)
	mat.Scale(m.B, s)
}

// ParamDistance returns the Euclidean distance between the parameter vectors
// of m and other (‖ω_m − ω_other‖₂), the quantity the convergence bound's
// A0 term measures.
func (m *Model) ParamDistance(other *Model) float64 {
	var ssq float64
	a, b := m.W.RawData(), other.W.RawData()
	for i := range a {
		d := a[i] - b[i]
		ssq += d * d
	}
	for i := range m.B {
		d := m.B[i] - other.B[i]
		ssq += d * d
	}
	return math.Sqrt(ssq)
}

// ParamCount returns the total number of scalar parameters.
func (m *Model) ParamCount() int {
	return m.W.Rows()*m.W.Cols() + len(m.B)
}

// Logits computes W·x + b into dst (length classes).
func (m *Model) Logits(dst, x []float64) error {
	if err := m.W.MulVec(dst, x); err != nil {
		return fmt.Errorf("logits: %w", err)
	}
	mat.Axpy(dst, 1, m.B)
	return nil
}

// Probabilities applies the model head to x, writing class probabilities
// (softmax) or per-class sigmoid scores into dst.
func (m *Model) Probabilities(dst, x []float64) error {
	if err := m.Logits(dst, x); err != nil {
		return err
	}
	switch m.Act {
	case Sigmoid:
		for i, z := range dst {
			dst[i] = sigmoid(z)
		}
	default: // Softmax, also the fallback for the zero value
		softmaxInPlace(dst)
	}
	return nil
}

// Predict returns the argmax class for sample x.
func (m *Model) Predict(x []float64) (int, error) {
	scores := make([]float64, m.Classes())
	if err := m.Logits(scores, x); err != nil {
		return 0, err
	}
	return mat.ArgMax(scores), nil
}

// PredictBatch classifies every row of d and returns the predicted labels,
// scoring evalChunk-row blocks through the batched forward pass.
func (m *Model) PredictBatch(d *dataset.Dataset) ([]int, error) {
	if d.Dim() != m.Features() {
		return nil, fmt.Errorf("predict %d-dim data with %d-dim model: %w", d.Dim(), m.Features(), ErrModelShape)
	}
	out := make([]int, d.Len())
	var sc fwdScratch
	if err := predictRowRange(m, d, 0, d.Len(), &sc, out); err != nil {
		return nil, err
	}
	return out, nil
}

// softmaxInPlace converts logits to a probability simplex with the usual
// max-shift for numerical stability.
func softmaxInPlace(z []float64) {
	maxZ := math.Inf(-1)
	for _, v := range z {
		if v > maxZ {
			maxZ = v
		}
	}
	var sum float64
	for i, v := range z {
		e := math.Exp(v - maxZ)
		z[i] = e
		sum += e
	}
	for i := range z {
		z[i] /= sum
	}
}

func sigmoid(z float64) float64 {
	// Branch keeps exp's argument non-positive so it cannot overflow.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// --- serialization ---------------------------------------------------------

// modelMagic guards the wire format. Bump the version byte when the layout
// changes.
var modelMagic = [4]byte{'E', 'F', 'M', 1}

// EncodedSize returns the exact byte length of the model's binary
// serialization: magic + header + parameters.
func (m *Model) EncodedSize() int {
	return 4 + 12 + m.ParamCount()*8
}

// AppendBinary appends the model's serialization to dst and returns the
// extended slice. The layout is deterministic little-endian: magic, then
// activation, classes and features as uint32, then W row-major, then B as
// IEEE-754 float64. It is the zero-copy encode path: the network layer
// appends directly into a pooled frame buffer.
func (m *Model) AppendBinary(dst []byte) []byte {
	dst = slices.Grow(dst, m.EncodedSize())
	dst = append(dst, modelMagic[:]...)
	var h [12]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(m.Act))
	binary.LittleEndian.PutUint32(h[4:8], uint32(m.Classes()))
	binary.LittleEndian.PutUint32(h[8:12], uint32(m.Features()))
	dst = append(dst, h[:]...)
	dst = appendFloat64s(dst, m.W.RawData())
	dst = appendFloat64s(dst, m.B)
	return dst
}

// appendFloat64s appends the little-endian IEEE-754 encoding of vals.
func appendFloat64s(dst []byte, vals []float64) []byte {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

// UnmarshalBinaryReuse decodes an AppendBinary payload into m, reusing m's
// existing parameter storage when the encoded shape matches — the decode
// path engines call round after round with a long-lived scratch model, so
// steady-state decoding allocates nothing. On a shape change it falls back
// to a fresh allocation. An activation other than Softmax or Sigmoid is an
// error.
func (m *Model) UnmarshalBinaryReuse(data []byte) error {
	if len(data) < 16 {
		return fmt.Errorf("ml: model payload of %d bytes", len(data))
	}
	var magic [4]byte
	copy(magic[:], data[:4])
	if magic != modelMagic {
		return fmt.Errorf("ml: bad model magic %x", magic)
	}
	act := Activation(binary.LittleEndian.Uint32(data[4:8]))
	if !act.valid() {
		return fmt.Errorf("ml: unknown activation %d", uint32(act))
	}
	classes := int(binary.LittleEndian.Uint32(data[8:12]))
	features := int(binary.LittleEndian.Uint32(data[12:16]))
	const maxParams = 1 << 26 // 512 MiB of float64: cap against corrupt headers
	// Bound each dimension before multiplying so the product cannot overflow.
	if classes <= 0 || features <= 0 || classes > maxParams || features > maxParams ||
		classes*features > maxParams {
		return fmt.Errorf("ml: implausible model shape %dx%d", classes, features)
	}
	params := classes*features + classes
	if len(data) != 16+params*8 {
		return fmt.Errorf("ml: model payload %d bytes, want %d", len(data), 16+params*8)
	}
	if m.W == nil || m.W.Rows() != classes || m.W.Cols() != features || len(m.B) != classes {
		fresh := NewModel(classes, features, act)
		m.W, m.B = fresh.W, fresh.B
	}
	m.Act = act
	readFloat64s(m.W.RawData(), data[16:])
	readFloat64s(m.B, data[16+classes*features*8:])
	return nil
}

// readFloat64s fills dst from the little-endian encoding at the head of data.
func readFloat64s(dst []float64, data []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
}
