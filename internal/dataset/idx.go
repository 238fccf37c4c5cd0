package dataset

import (
	"encoding/binary"
	"fmt"
	"io"

	"fhdnn/internal/tensor"
)

// IDX is the binary format the real MNIST/FashionMNIST distributions ship
// in (train-images-idx3-ubyte / train-labels-idx1-ubyte). This reader lets
// the library run on the genuine datasets when the user has the files; the
// synthetic generators remain the offline default.
//
// Format: big-endian magic 0x00 0x00 <dtype> <ndim>, then ndim int32
// dimension sizes, then the raw data. MNIST uses dtype 0x08 (uint8).

const idxTypeUint8 = 0x08

// ReadIDXImages parses an images file (ndim=3: count x rows x cols) into a
// 1-channel image tensor scaled to [0,1].
func ReadIDXImages(r io.Reader) (*tensor.Tensor, error) {
	dims, err := readIDXHeader(r, 3)
	if err != nil {
		return nil, err
	}
	n, rows, cols := dims[0], dims[1], dims[2]
	if n <= 0 || rows <= 0 || cols <= 0 || n*rows*cols > 1<<30 {
		return nil, fmt.Errorf("dataset: implausible IDX image dims %v", dims)
	}
	raw := make([]byte, n*rows*cols)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("dataset: read IDX pixels: %w", err)
	}
	out := tensor.New(n, 1, rows, cols)
	for i, b := range raw {
		out.Data()[i] = float32(b) / 255
	}
	return out, nil
}

// ReadIDXLabels parses a labels file (ndim=1).
func ReadIDXLabels(r io.Reader) ([]int, error) {
	dims, err := readIDXHeader(r, 1)
	if err != nil {
		return nil, err
	}
	n := dims[0]
	if n <= 0 || n > 1<<30 {
		return nil, fmt.Errorf("dataset: implausible IDX label count %d", n)
	}
	raw := make([]byte, n)
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, fmt.Errorf("dataset: read IDX labels: %w", err)
	}
	labels := make([]int, n)
	for i, b := range raw {
		labels[i] = int(b)
	}
	return labels, nil
}

// LoadIDX combines an images and a labels stream into a Dataset, verifying
// counts agree and labels are within range.
func LoadIDX(images, labels io.Reader, name string, numClasses int) (*Dataset, error) {
	x, err := ReadIDXImages(images)
	if err != nil {
		return nil, err
	}
	y, err := ReadIDXLabels(labels)
	if err != nil {
		return nil, err
	}
	if x.Dim(0) != len(y) {
		return nil, fmt.Errorf("dataset: %d images but %d labels", x.Dim(0), len(y))
	}
	for i, l := range y {
		if l < 0 || l >= numClasses {
			return nil, fmt.Errorf("dataset: label %d at index %d out of [0,%d)", l, i, numClasses)
		}
	}
	return &Dataset{Name: name, X: x, Labels: y, NumClasses: numClasses}, nil
}

func readIDXHeader(r io.Reader, wantDims int) ([]int, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("dataset: read IDX magic: %w", err)
	}
	if magic[0] != 0 || magic[1] != 0 {
		return nil, fmt.Errorf("dataset: bad IDX magic % x", magic)
	}
	if magic[2] != idxTypeUint8 {
		return nil, fmt.Errorf("dataset: unsupported IDX dtype %#x (only uint8)", magic[2])
	}
	if int(magic[3]) != wantDims {
		return nil, fmt.Errorf("dataset: IDX has %d dims, want %d", magic[3], wantDims)
	}
	dims := make([]int, wantDims)
	for i := range dims {
		var v uint32
		if err := binary.Read(r, binary.BigEndian, &v); err != nil {
			return nil, fmt.Errorf("dataset: read IDX dim %d: %w", i, err)
		}
		dims[i] = int(v)
	}
	return dims, nil
}
