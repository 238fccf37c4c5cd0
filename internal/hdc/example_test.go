package hdc_test

import (
	"fmt"
	"math/rand"

	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

// Encode features into hyperspace, train a prototype classifier one-shot,
// and classify.
func Example() {
	rng := rand.New(rand.NewSource(1))
	enc := hdc.NewEncoder(rng, 2048, 4)

	// two classes with opposite feature signatures
	examples := [][]float32{
		{1, 1, -1, -1}, {0.9, 1.1, -1, -0.9}, // class 0
		{-1, -1, 1, 1}, {-1.1, -0.9, 1, 1.2}, // class 1
	}
	labels := []int{0, 0, 1, 1}

	encoded := tensor.New(len(examples), 2048)
	for i, x := range examples {
		copy(encoded.Data()[i*2048:(i+1)*2048], enc.Encode(x))
	}
	model := hdc.NewModel(2, 2048)
	model.OneShotTrain(encoded, labels)

	query := enc.Encode([]float32{1, 0.8, -1.2, -1})
	class, _ := model.Predict(query)
	fmt.Println("predicted class:", class)
	// Output: predicted class: 0
}

// The quantizer bounds what a bit flip can do to a transmitted prototype.
func ExampleQuantizer() {
	q := hdc.NewQuantizer(16)
	proto := []float32{0.5, -2, 1.25}
	codes, gain := q.Quantize(proto)
	back := q.Dequantize(codes, gain)
	fmt.Printf("%.2f %.2f %.2f\n", back[0], back[1], back[2])
	// Output: 0.50 -2.00 1.25
}
