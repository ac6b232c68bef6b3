package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"eefei/internal/mat"
)

func TestIDXImagesRoundTrip(t *testing.T) {
	cfg := QuickSyntheticConfig()
	cfg.Samples = 50
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	var buf bytes.Buffer
	if err := writeIDXImages(&buf, d.X, cfg.Side); err != nil {
		t.Fatalf("writeIDXImages: %v", err)
	}
	back, err := ReadIDXImages(&buf)
	if err != nil {
		t.Fatalf("ReadIDXImages: %v", err)
	}
	if back.Rows() != d.X.Rows() || back.Cols() != d.X.Cols() {
		t.Fatalf("round-trip shape %dx%d, want %dx%d", back.Rows(), back.Cols(), d.X.Rows(), d.X.Cols())
	}
	// Quantization to bytes loses at most 1/255 ≈ 0.004 per pixel.
	if !back.Equal(d.X, 1.0/254) {
		t.Error("round-trip pixels deviate beyond quantization error")
	}
}

func TestIDXLabelsRoundTrip(t *testing.T) {
	labels := []int{0, 1, 2, 9, 5, 5}
	var buf bytes.Buffer
	if err := writeIDXLabels(&buf, labels); err != nil {
		t.Fatalf("writeIDXLabels: %v", err)
	}
	back, err := ReadIDXLabels(&buf)
	if err != nil {
		t.Fatalf("ReadIDXLabels: %v", err)
	}
	if len(back) != len(labels) {
		t.Fatalf("len = %d, want %d", len(back), len(labels))
	}
	for i := range labels {
		if back[i] != labels[i] {
			t.Errorf("label[%d] = %d, want %d", i, back[i], labels[i])
		}
	}
}

func TestReadIDXBadMagic(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"truncated magic", []byte{0, 0}},
		{"nonzero prefix", []byte{1, 0, 0x08, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"wrong dtype", []byte{0, 0, 0x0d, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"wrong ndim", []byte{0, 0, 0x08, 2, 0, 0, 0, 0, 0, 0, 0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadIDXImages(bytes.NewReader(tt.data)); err == nil {
				t.Error("malformed stream must error")
			}
		})
	}
}

func TestReadIDXTruncatedPayload(t *testing.T) {
	// Header promises 2 images of 2x2 but payload has only 3 bytes.
	data := []byte{
		0, 0, 0x08, 3,
		0, 0, 0, 2,
		0, 0, 0, 2,
		0, 0, 0, 2,
		1, 2, 3,
	}
	if _, err := ReadIDXImages(bytes.NewReader(data)); err == nil {
		t.Error("truncated payload must error")
	}
}

func TestReadIDXSizeCap(t *testing.T) {
	// A header claiming an enormous tensor must be rejected before allocation.
	data := []byte{
		0, 0, 0x08, 3,
		0xff, 0xff, 0xff, 0xff,
		0, 0, 0, 28,
		0, 0, 0, 28,
	}
	if _, err := ReadIDXImages(bytes.NewReader(data)); !errors.Is(err, ErrIDXFormat) {
		t.Errorf("oversized header = %v, want ErrIDXFormat", err)
	}
}

func TestLoadMNISTFromGeneratedFiles(t *testing.T) {
	// Full loop: write synthetic data in MNIST's own container format, read
	// it back with the real-file loader.
	dir := t.TempDir()
	cfg := QuickSyntheticConfig()
	cfg.Samples = 40
	d, err := Synthesize(cfg)
	if err != nil {
		t.Fatalf("Synthesize: %v", err)
	}
	imgPath := filepath.Join(dir, "images.idx3-ubyte")
	lblPath := filepath.Join(dir, "labels.idx1-ubyte")

	imgFile, err := os.Create(imgPath)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := writeIDXImages(imgFile, d.X, cfg.Side); err != nil {
		t.Fatalf("writeIDXImages: %v", err)
	}
	imgFile.Close()

	lblFile, err := os.Create(lblPath)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := writeIDXLabels(lblFile, d.Labels); err != nil {
		t.Fatalf("writeIDXLabels: %v", err)
	}
	lblFile.Close()

	loaded, err := LoadMNIST(imgPath, lblPath)
	if err != nil {
		t.Fatalf("LoadMNIST: %v", err)
	}
	if loaded.Len() != 40 || loaded.Classes != 10 {
		t.Errorf("loaded Len=%d Classes=%d", loaded.Len(), loaded.Classes)
	}
	for i := range d.Labels {
		if loaded.Labels[i] != d.Labels[i] {
			t.Fatalf("label[%d] = %d, want %d", i, loaded.Labels[i], d.Labels[i])
		}
	}
}

func TestLoadMNISTMissingFiles(t *testing.T) {
	if _, err := LoadMNIST("/nonexistent/img", "/nonexistent/lbl"); err == nil {
		t.Error("missing files must error")
	}
}

// writeIDXImages serializes images (n×(side²), values in [0,1]) as an IDX
// 3-D unsigned-byte tensor, the inverse of ReadIDXImages.
func writeIDXImages(w io.Writer, images *mat.Dense, side int) error {
	if images.Cols() != side*side {
		return fmt.Errorf("images have %d features, want %d: %w", images.Cols(), side*side, ErrIDXFormat)
	}
	bw := bufio.NewWriter(w)
	header := []uint32{uint32(images.Rows()), uint32(side), uint32(side)}
	if err := writeIDXHeader(bw, 3, header); err != nil {
		return err
	}
	data := images.RawData()
	for _, v := range data {
		if err := bw.WriteByte(byte(mat.Clamp(v, 0, 1)*255 + 0.5)); err != nil {
			return fmt.Errorf("write pixel: %w", err)
		}
	}
	return bw.Flush()
}

// writeIDXLabels serializes labels as an IDX 1-D unsigned-byte tensor.
func writeIDXLabels(w io.Writer, labels []int) error {
	bw := bufio.NewWriter(w)
	if err := writeIDXHeader(bw, 1, []uint32{uint32(len(labels))}); err != nil {
		return err
	}
	for i, y := range labels {
		if y < 0 || y > 255 {
			return fmt.Errorf("label %d at %d outside byte range: %w", y, i, ErrIDXFormat)
		}
		if err := bw.WriteByte(byte(y)); err != nil {
			return fmt.Errorf("write label: %w", err)
		}
	}
	return bw.Flush()
}

func writeIDXHeader(w io.Writer, ndim int, dims []uint32) error {
	if _, err := w.Write([]byte{0, 0, idxTypeUint8, byte(ndim)}); err != nil {
		return fmt.Errorf("write magic: %w", err)
	}
	for _, d := range dims {
		if err := binary.Write(w, binary.BigEndian, d); err != nil {
			return fmt.Errorf("write dim: %w", err)
		}
	}
	return nil
}
