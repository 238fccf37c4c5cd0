package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"fhdnn/internal/tensor"
)

// CSV import. The synthetic generators stand in for MNIST/CIFAR in
// this offline reproduction, but the library is meant to run on real data
// when the user has it. The format is one example per row: the label in
// the first column, then the flattened feature/pixel values — the layout
// of the common "mnist_train.csv" distributions.

// ReadCSVImages parses label-first CSV rows into an image dataset of the
// given geometry. Every row must have exactly 1 + channels*size*size
// columns; labels must lie in [0, numClasses).
func ReadCSVImages(r io.Reader, name string, numClasses, channels, size int) (*Dataset, error) {
	x, labels, err := readCSV(r, numClasses, channels*size*size)
	if err != nil {
		return nil, err
	}
	n := len(labels)
	return &Dataset{
		Name:       name,
		X:          x.Reshape(n, channels, size, size),
		Labels:     labels,
		NumClasses: numClasses,
	}, nil
}

func readCSV(r io.Reader, numClasses, sampleLen int) (x *tensor.Tensor, labels []int, err error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 1 + sampleLen
	var data []float32
	for rowIdx := 0; ; rowIdx++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: csv row %d: %w", rowIdx, err)
		}
		label, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, nil, fmt.Errorf("dataset: csv row %d: bad label %q", rowIdx, rec[0])
		}
		if label < 0 || label >= numClasses {
			return nil, nil, fmt.Errorf("dataset: csv row %d: label %d out of [0,%d)", rowIdx, label, numClasses)
		}
		labels = append(labels, label)
		for col, cell := range rec[1:] {
			v, err := strconv.ParseFloat(cell, 32)
			if err != nil {
				return nil, nil, fmt.Errorf("dataset: csv row %d col %d: %w", rowIdx, col+1, err)
			}
			data = append(data, float32(v))
		}
	}
	if len(labels) == 0 {
		return nil, nil, fmt.Errorf("dataset: csv contained no rows")
	}
	return tensor.FromSlice(data, len(labels), sampleLen), labels, nil
}
