package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"eefei/internal/mat"
)

// The IDX format is the container MNIST ships in: a big-endian magic word
// (0x00 0x00 <dtype> <ndim>) followed by ndim uint32 dimension sizes and the
// raw payload. We support the unsigned-byte dtype (0x08), which is what the
// canonical train-images/train-labels files use.

// ErrIDXFormat is returned (wrapped) for malformed IDX streams.
var ErrIDXFormat = errors.New("dataset: malformed IDX stream")

const (
	idxTypeUint8 = 0x08
	// maxIDXElements caps allocations so a corrupt header cannot OOM us.
	maxIDXElements = 1 << 28
)

// ReadIDXImages parses an IDX 3-D unsigned-byte tensor (images × rows × cols)
// and returns the images as an n×(rows·cols) matrix scaled to [0, 1].
func ReadIDXImages(r io.Reader) (*mat.Dense, error) {
	br := bufio.NewReader(r)
	dims, err := readIDXHeader(br, 3)
	if err != nil {
		return nil, fmt.Errorf("images header: %w", err)
	}
	n, rows, cols := dims[0], dims[1], dims[2]
	// Bound each dimension before multiplying so the product cannot
	// overflow int and sneak past the cap.
	if n > maxIDXElements || rows > maxIDXElements || cols > maxIDXElements ||
		(rows != 0 && cols != 0 && n > maxIDXElements/(rows*cols)) {
		return nil, fmt.Errorf("images %dx%dx%d exceed size cap: %w", n, rows, cols, ErrIDXFormat)
	}
	raw := make([]byte, n*rows*cols)
	if _, err := io.ReadFull(br, raw); err != nil {
		return nil, fmt.Errorf("images payload: %w", err)
	}
	out := mat.NewDense(n, rows*cols)
	data := out.RawData()
	for i, b := range raw {
		data[i] = float64(b) / 255
	}
	return out, nil
}

// ReadIDXLabels parses an IDX 1-D unsigned-byte tensor of class labels.
func ReadIDXLabels(r io.Reader) ([]int, error) {
	br := bufio.NewReader(r)
	dims, err := readIDXHeader(br, 1)
	if err != nil {
		return nil, fmt.Errorf("labels header: %w", err)
	}
	n := dims[0]
	if n > maxIDXElements {
		return nil, fmt.Errorf("labels count %d exceeds size cap: %w", n, ErrIDXFormat)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(br, raw); err != nil {
		return nil, fmt.Errorf("labels payload: %w", err)
	}
	labels := make([]int, n)
	for i, b := range raw {
		labels[i] = int(b)
	}
	return labels, nil
}

// LoadMNIST reads a real MNIST dataset from the canonical pair of IDX files.
// Classes is fixed at 10.
func LoadMNIST(imagesPath, labelsPath string) (*Dataset, error) {
	imgFile, err := os.Open(imagesPath)
	if err != nil {
		return nil, fmt.Errorf("open images: %w", err)
	}
	defer imgFile.Close()
	x, err := ReadIDXImages(imgFile)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", imagesPath, err)
	}

	lblFile, err := os.Open(labelsPath)
	if err != nil {
		return nil, fmt.Errorf("open labels: %w", err)
	}
	defer lblFile.Close()
	labels, err := ReadIDXLabels(lblFile)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", labelsPath, err)
	}

	if len(labels) != x.Rows() {
		return nil, fmt.Errorf("%d labels for %d images: %w", len(labels), x.Rows(), ErrIDXFormat)
	}
	d := &Dataset{X: x, Labels: labels, Classes: 10}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("validate MNIST: %w", err)
	}
	return d, nil
}

func readIDXHeader(r io.Reader, wantDims int) ([]int, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("magic: %w", err)
	}
	if magic[0] != 0 || magic[1] != 0 {
		return nil, fmt.Errorf("magic %x: %w", magic, ErrIDXFormat)
	}
	if magic[2] != idxTypeUint8 {
		return nil, fmt.Errorf("dtype 0x%02x unsupported: %w", magic[2], ErrIDXFormat)
	}
	if int(magic[3]) != wantDims {
		return nil, fmt.Errorf("ndim %d, want %d: %w", magic[3], wantDims, ErrIDXFormat)
	}
	dims := make([]int, wantDims)
	for i := range dims {
		var d uint32
		if err := binary.Read(r, binary.BigEndian, &d); err != nil {
			return nil, fmt.Errorf("dim %d: %w", i, err)
		}
		dims[i] = int(d)
	}
	return dims, nil
}
