package ml

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// The zero-copy codec paths (AppendBinary / UnmarshalBinaryReuse /
// AppendQuantized / DequantizeInto) exist so the wire protocol can encode
// into pooled frame buffers and decode into long-lived scratch models. They
// must keep their byte layouts and stay allocation-free once the scratch has
// warmed up.

// TestAppendBinaryGoldenBytes pins the model wire layout byte for byte:
// magic "EFM\x01", then activation, classes and features as little-endian
// uint32, then W row-major, then B, each as little-endian IEEE-754 float64.
func TestAppendBinaryGoldenBytes(t *testing.T) {
	m := NewModel(2, 3, Sigmoid)
	copy(m.W.RawData(), []float64{1, 2, -1, 0.5, 0, 1.5})
	copy(m.B, []float64{0.25, -2})
	want := []byte{
		'E', 'F', 'M', 1,
		2, 0, 0, 0, // activation = Sigmoid
		2, 0, 0, 0, // classes
		3, 0, 0, 0, // features
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // W[0][0] = 1
		0, 0, 0, 0, 0, 0, 0x00, 0x40, // W[0][1] = 2
		0, 0, 0, 0, 0, 0, 0xf0, 0xbf, // W[0][2] = -1
		0, 0, 0, 0, 0, 0, 0xe0, 0x3f, // W[1][0] = 0.5
		0, 0, 0, 0, 0, 0, 0x00, 0x00, // W[1][1] = 0
		0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // W[1][2] = 1.5
		0, 0, 0, 0, 0, 0, 0xd0, 0x3f, // B[0] = 0.25
		0, 0, 0, 0, 0, 0, 0x00, 0xc0, // B[1] = -2
	}
	got := m.AppendBinary(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendBinary layout changed:\n got % x\nwant % x", got, want)
	}
	if len(got) != m.EncodedSize() {
		t.Errorf("EncodedSize = %d, encoded %d bytes", m.EncodedSize(), len(got))
	}
	var back Model
	if err := back.UnmarshalBinaryReuse(want); err != nil {
		t.Fatalf("decode golden: %v", err)
	}
	if back.Act != Sigmoid || back.Classes() != 2 || back.Features() != 3 || back.ParamDistance(m) != 0 {
		t.Fatal("golden bytes decode to a different model")
	}
	// Appending after a prefix must leave the prefix alone.
	pre := []byte{9, 9, 9}
	full := m.AppendBinary(pre)
	if !bytes.Equal(full[:3], pre[:3]) || !bytes.Equal(full[3:], want) {
		t.Fatal("AppendBinary clobbered the destination prefix")
	}
}

// TestDecodersRejectUnknownActivation: both model decoders accept only the
// heads the forward and loss paths implement.
func TestDecodersRejectUnknownActivation(t *testing.T) {
	m := randomModel(1, 3, 4)
	plain := m.AppendBinary(nil)
	quant, err := QuantizeModel(m, Quant8)
	if err != nil {
		t.Fatalf("QuantizeModel: %v", err)
	}
	decoders := []struct {
		name    string
		payload []byte
		decode  func(*Model, []byte) error
	}{
		{"plain", plain, (*Model).UnmarshalBinaryReuse},
		{"quant8", quant, (*Model).DequantizeInto},
	}
	for _, dec := range decoders {
		for _, act := range []uint32{0, uint32(Softmax), uint32(Sigmoid), 3, 0xffffffff} {
			data := bytes.Clone(dec.payload)
			binary.LittleEndian.PutUint32(data[4:8], act)
			var back Model
			err := dec.decode(&back, data)
			valid := act == uint32(Softmax) || act == uint32(Sigmoid)
			switch {
			case valid && err != nil:
				t.Errorf("%s act=%d: %v", dec.name, act, err)
			case valid && back.Act != Activation(act):
				t.Errorf("%s act=%d decoded as %v", dec.name, act, back.Act)
			case !valid && err == nil:
				t.Errorf("%s act=%#x decoded with a nil error", dec.name, act)
			}
		}
	}
}

func TestUnmarshalBinaryReuseRoundTrip(t *testing.T) {
	m := randomModel(11, 5, 9)
	data := m.AppendBinary(nil)

	var fresh Model
	if err := fresh.UnmarshalBinaryReuse(data); err != nil {
		t.Fatalf("decode into zero model: %v", err)
	}
	if fresh.ParamDistance(m) != 0 || fresh.Act != m.Act {
		t.Fatal("decode into zero model lost parameters")
	}

	// Reuse: same shape decodes into the existing storage.
	scratch := NewModel(5, 9, Sigmoid)
	w0, b0 := &scratch.W.RawData()[0], &scratch.B[0]
	if err := scratch.UnmarshalBinaryReuse(data); err != nil {
		t.Fatalf("decode into scratch: %v", err)
	}
	if scratch.ParamDistance(m) != 0 || scratch.Act != Softmax {
		t.Fatal("decode into scratch lost parameters")
	}
	if w0 != &scratch.W.RawData()[0] || b0 != &scratch.B[0] {
		t.Fatal("matching-shape decode reallocated the parameter storage")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := scratch.UnmarshalBinaryReuse(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm UnmarshalBinaryReuse allocates %.1f/op, want 0", allocs)
	}

	// Shape change falls back to fresh storage.
	other := randomModel(2, 3, 4)
	if err := scratch.UnmarshalBinaryReuse(other.AppendBinary(nil)); err != nil {
		t.Fatalf("decode across shapes: %v", err)
	}
	if scratch.ParamDistance(other) != 0 {
		t.Fatal("cross-shape decode lost parameters")
	}
}

func TestUnmarshalBinaryReuseRejectsGarbage(t *testing.T) {
	good := randomModel(1, 2, 3).AppendBinary(nil)
	cases := map[string][]byte{
		"empty":      {},
		"short":      good[:10],
		"bad magic":  append([]byte{1, 2, 3, 4}, good[4:]...),
		"truncated":  good[:len(good)-1],
		"trailing":   append(bytes.Clone(good), 0),
		"zero shape": {'E', 'F', 'M', 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"huge shape": {'E', 'F', 'M', 1, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, data := range cases {
		var m Model
		if err := m.UnmarshalBinaryReuse(data); err == nil {
			t.Errorf("%s: decode accepted garbage", name)
		}
	}
}

func TestAppendQuantizedMatchesQuantizeModel(t *testing.T) {
	m := randomModel(5, 6, 8)
	for _, bits := range []QuantBits{Quant8, Quant16} {
		want, err := QuantizeModel(m, bits)
		if err != nil {
			t.Fatalf("QuantizeModel(%d): %v", bits, err)
		}
		got, err := AppendQuantized(nil, m, bits)
		if err != nil {
			t.Fatalf("AppendQuantized(%d): %v", bits, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("AppendQuantized(%d) diverges from QuantizeModel", bits)
		}
		pre := []byte{7}
		full, err := AppendQuantized(pre, m, bits)
		if err != nil {
			t.Fatalf("AppendQuantized with prefix: %v", err)
		}
		if full[0] != 7 || !bytes.Equal(full[1:], want) {
			t.Errorf("AppendQuantized(%d) clobbered the destination prefix", bits)
		}
	}
	if _, err := AppendQuantized(nil, m, 12); err == nil {
		t.Error("bits=12 must be rejected")
	}
}

func TestDequantizeIntoReuse(t *testing.T) {
	m := randomModel(9, 4, 6)
	data, err := QuantizeModel(m, Quant16)
	if err != nil {
		t.Fatalf("QuantizeModel: %v", err)
	}
	ref, err := DequantizeModel(data)
	if err != nil {
		t.Fatalf("DequantizeModel: %v", err)
	}
	scratch := NewModel(4, 6, Softmax)
	w0 := &scratch.W.RawData()[0]
	if err := scratch.DequantizeInto(data); err != nil {
		t.Fatalf("DequantizeInto: %v", err)
	}
	if scratch.ParamDistance(ref) != 0 {
		t.Fatal("DequantizeInto diverges from DequantizeModel")
	}
	if w0 != &scratch.W.RawData()[0] {
		t.Fatal("matching-shape dequantize reallocated the storage")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := scratch.DequantizeInto(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm DequantizeInto allocates %.1f/op, want 0", allocs)
	}
	if err := scratch.DequantizeInto(data[:len(data)-1]); err == nil {
		t.Error("truncated payload must be rejected")
	}
	if math.IsNaN(scratch.B[0]) {
		t.Error("failed decode left NaN in scratch")
	}
}
