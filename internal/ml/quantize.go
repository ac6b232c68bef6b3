package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Model-upload energy is proportional to bytes on the air (Section IV),
// which makes lossy update compression a direct energy knob: quantizing the
// float64 parameters to q bits shrinks e^U by ~64/q at a bounded accuracy
// cost. This file implements symmetric per-tensor linear quantization to
// 8 or 16 bits with a deterministic binary container, plus the error bound
// callers use to decide whether the distortion is acceptable.

// ErrQuantize is returned (wrapped) for invalid quantization parameters or
// malformed quantized payloads.
var ErrQuantize = errors.New("ml: quantization error")

// QuantBits selects the quantization width.
type QuantBits int

const (
	// Quant8 stores each parameter in one byte (8× smaller than float64).
	Quant8 QuantBits = 8
	// Quant16 stores each parameter in two bytes (4× smaller).
	Quant16 QuantBits = 16
)

// quantMagic guards the quantized wire format.
var quantMagic = [4]byte{'E', 'F', 'Q', 1}

// QuantizeModel encodes m into a compact lossy representation: a header
// (shape, activation, bits), one scale per tensor (weights, biases), and
// the linearly quantized values. Decoding with DequantizeModel yields a
// model whose per-parameter error is at most MaxQuantError(m, bits).
func QuantizeModel(m *Model, bits QuantBits) ([]byte, error) {
	return AppendQuantized(nil, m, bits)
}

// AppendQuantized appends the quantized encoding of m to dst and returns the
// extended slice — byte-identical to QuantizeModel's output, but writing
// directly into a caller-owned (e.g. pooled frame) buffer.
func AppendQuantized(dst []byte, m *Model, bits QuantBits) ([]byte, error) {
	if bits != Quant8 && bits != Quant16 {
		return nil, fmt.Errorf("width %d bits: %w", bits, ErrQuantize)
	}
	w := m.W.RawData()
	out := slices.Grow(dst, QuantizedSize(m.Classes(), m.Features(), bits))
	out = append(out, quantMagic[:]...)
	var header [16]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(m.Act))
	binary.LittleEndian.PutUint32(header[4:8], uint32(m.Classes()))
	binary.LittleEndian.PutUint32(header[8:12], uint32(m.Features()))
	binary.LittleEndian.PutUint32(header[12:16], uint32(bits))
	out = append(out, header[:]...)

	var err error
	out, err = appendQuantTensor(out, w, bits)
	if err != nil {
		return nil, fmt.Errorf("weights: %w", err)
	}
	out, err = appendQuantTensor(out, m.B, bits)
	if err != nil {
		return nil, fmt.Errorf("biases: %w", err)
	}
	return out, nil
}

// appendQuantTensor writes [float64 scale][q-bit codes…] for one tensor.
// The symmetric scheme maps value v to round(v/scale) with
// scale = maxAbs / qMax, so zero is exactly representable.
func appendQuantTensor(dst []byte, vals []float64, bits QuantBits) ([]byte, error) {
	var maxAbs float64
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("non-finite value %v: %w", v, ErrQuantize)
		}
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	qMax := float64(int32(1)<<(bits-1) - 1)
	scale := maxAbs / qMax
	if scale == 0 {
		scale = 1 // all-zero tensor: any scale decodes to zeros
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(scale))
	dst = append(dst, buf[:]...)
	for _, v := range vals {
		q := int32(math.Round(v / scale))
		switch bits {
		case Quant8:
			dst = append(dst, byte(int8(q)))
		case Quant16:
			var b [2]byte
			binary.LittleEndian.PutUint16(b[:], uint16(int16(q)))
			dst = append(dst, b[:]...)
		}
	}
	return dst, nil
}

// DequantizeModel decodes a payload produced by QuantizeModel.
func DequantizeModel(data []byte) (*Model, error) {
	var m Model
	if err := m.DequantizeInto(data); err != nil {
		return nil, err
	}
	return &m, nil
}

// DequantizeInto decodes a payload produced by QuantizeModel into m, reusing
// m's existing parameter storage when the encoded shape matches. Like
// Model.UnmarshalBinaryReuse it is the steady-state decode path: a long-lived
// scratch model makes repeated dequantization allocation-free.
func (m *Model) DequantizeInto(data []byte) error {
	if len(data) < 20 {
		return fmt.Errorf("payload of %d bytes: %w", len(data), ErrQuantize)
	}
	if data[0] != quantMagic[0] || data[1] != quantMagic[1] ||
		data[2] != quantMagic[2] || data[3] != quantMagic[3] {
		return fmt.Errorf("bad magic: %w", ErrQuantize)
	}
	act := Activation(binary.LittleEndian.Uint32(data[4:8]))
	if !act.valid() {
		return fmt.Errorf("unknown activation %d: %w", uint32(act), ErrQuantize)
	}
	classes := int(binary.LittleEndian.Uint32(data[8:12]))
	features := int(binary.LittleEndian.Uint32(data[12:16]))
	bits := QuantBits(binary.LittleEndian.Uint32(data[16:20]))
	if bits != Quant8 && bits != Quant16 {
		return fmt.Errorf("width %d bits: %w", bits, ErrQuantize)
	}
	const maxParams = 1 << 26
	if classes <= 0 || features <= 0 || classes > maxParams || features > maxParams ||
		classes*features > maxParams {
		return fmt.Errorf("implausible shape %dx%d: %w", classes, features, ErrQuantize)
	}
	if m.W == nil || m.W.Rows() != classes || m.W.Cols() != features || len(m.B) != classes {
		fresh := NewModel(classes, features, act)
		m.W, m.B = fresh.W, fresh.B
	}
	m.Act = act
	rest, err := readQuantTensor(data[20:], m.W.RawData(), bits)
	if err != nil {
		return fmt.Errorf("weights: %w", err)
	}
	rest, err = readQuantTensor(rest, m.B, bits)
	if err != nil {
		return fmt.Errorf("biases: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("%d trailing bytes: %w", len(rest), ErrQuantize)
	}
	return nil
}

func readQuantTensor(data []byte, dst []float64, bits QuantBits) ([]byte, error) {
	step := int(bits) / 8
	need := 8 + len(dst)*step
	if len(data) < need {
		return nil, fmt.Errorf("tensor needs %d bytes, have %d: %w", need, len(data), ErrQuantize)
	}
	scale := math.Float64frombits(binary.LittleEndian.Uint64(data[:8]))
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("scale %v: %w", scale, ErrQuantize)
	}
	body := data[8:need]
	for i := range dst {
		var q int32
		switch bits {
		case Quant8:
			q = int32(int8(body[i]))
		case Quant16:
			q = int32(int16(binary.LittleEndian.Uint16(body[i*2:])))
		}
		dst[i] = float64(q) * scale
	}
	return data[need:], nil
}

// MaxQuantError returns the worst-case per-parameter reconstruction error
// of quantizing m at the given width: half a quantization step of the
// larger tensor scale.
func MaxQuantError(m *Model, bits QuantBits) float64 {
	qMax := float64(int32(1)<<(bits-1) - 1)
	var maxAbs float64
	for _, v := range m.W.RawData() {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	for _, v := range m.B {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs / qMax / 2
}

// QuantizedSize returns the payload size in bytes for a model of the given
// shape at the given width.
func QuantizedSize(classes, features int, bits QuantBits) int {
	params := classes*features + classes
	return 4 + 16 + 8 + 8 + params*int(bits)/8
}
