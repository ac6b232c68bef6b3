package dataset

import (
	"bytes"
	"testing"
)

// Fuzzers for the IDX parsers: arbitrary files must never panic or allocate
// unboundedly.

func FuzzReadIDXImages(f *testing.F) {
	cfg := QuickSyntheticConfig()
	cfg.Samples = 3
	cfg.Side = 4
	d, err := Synthesize(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := writeIDXImages(&good, d.X, cfg.Side); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{0, 0, 0x08, 3, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 42})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadIDXImages(bytes.NewReader(data))
		if err == nil {
			if m.Rows() < 0 || m.Cols() < 0 {
				t.Fatal("accepted images with negative dims")
			}
			for _, v := range m.RawData() {
				if v < 0 || v > 1 {
					t.Fatalf("pixel %v outside [0,1]", v)
				}
			}
		}
	})
}

func FuzzReadIDXLabels(f *testing.F) {
	var good bytes.Buffer
	if err := writeIDXLabels(&good, []int{0, 1, 9}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte{0, 0, 0x08, 1, 0, 0, 0, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		labels, err := ReadIDXLabels(bytes.NewReader(data))
		if err == nil {
			for _, y := range labels {
				if y < 0 || y > 255 {
					t.Fatalf("label %d outside byte range", y)
				}
			}
		}
	})
}
