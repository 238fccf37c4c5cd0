// Command fhdnn-inspect prints a summary of a serialized FHDnn artifact:
// an HD model (FHDM, as written by fhdnn-server -checkpoint), an HD
// encoder (FHDE), or a full model checkpoint (FHDN..., as written by
// fhdnn-train / core.FHDnn.Save). It reports dimensions, per-class norms,
// and inter-class similarity — the quick health check an operator wants
// before shipping a global model back to a fleet.
//
// Usage:
//
//	fhdnn-inspect model.fhdnn [model2.fhdm ...]
package main

import (
	"bytes"
	"fmt"
	"os"

	"fhdnn/internal/hdc"
	"fhdnn/internal/nn"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: fhdnn-inspect <file> [file...]")
		os.Exit(2)
	}
	exit := 0
	for _, path := range os.Args[1:] {
		if err := inspect(path); err != nil {
			fmt.Fprintf(os.Stderr, "fhdnn-inspect: %s: %v\n", path, err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func inspect(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < 4 {
		return fmt.Errorf("file too short (%d bytes)", len(data))
	}
	switch string(data[:4]) {
	case "FHDN": // full checkpoint: nn params, then encoder, then model
		r := bytes.NewReader(data)
		nParams, nValues, err := nn.ScanParams(r)
		if err != nil {
			return err
		}
		fmt.Printf("%s: full FHDnn checkpoint (%d bytes)\n", path, len(data))
		fmt.Printf("  extractor: %d parameter tensors, %d weights\n", nParams, nValues)
		e, err := hdc.ReadEncoder(r)
		if err != nil {
			return err
		}
		fmt.Printf("  encoder: FHDE v%d, d=%d n=%d s=%d binarize=%v\n", hdc.EncoderFormat, e.D, e.N, e.S, e.Binarize)
		m, err := hdc.ReadModel(r)
		if err != nil {
			return err
		}
		printModel(path, m, len(data))
	case "FHDM":
		m, err := hdc.ReadModel(bytes.NewReader(data))
		if err != nil {
			return err
		}
		printModel(path, m, len(data))
	case "FHDE":
		e, err := hdc.ReadEncoder(bytes.NewReader(data))
		if err != nil {
			return err
		}
		fmt.Printf("%s: HD encoder, FHDE v%d, d=%d n=%d s=%d binarize=%v (%d bytes)\n",
			path, hdc.EncoderFormat, e.D, e.N, e.S, e.Binarize, len(data))
	default:
		return fmt.Errorf("unknown magic %q (want FHDN, FHDM or FHDE)", data[:4])
	}
	return nil
}

func printModel(path string, m *hdc.Model, size int) {
	fmt.Printf("%s: HD model, %d classes x %d dims (%d bytes)\n", path, m.K, m.D, size)
	fmt.Println("  class   L2 norm     max|c|")
	for k := 0; k < m.K; k++ {
		row := m.Class(k)
		maxAbs := float32(0)
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		fmt.Printf("  %5d   %9.2f  %9.2f\n", k, hdc.Norm(row), maxAbs)
	}
	// inter-class similarity: high values warn of confusable prototypes
	worst := -2.0
	wa, wb := 0, 0
	for a := 0; a < m.K; a++ {
		for b := a + 1; b < m.K; b++ {
			if sim := hdc.Cosine(m.Class(a), m.Class(b)); sim > worst {
				worst, wa, wb = sim, a, b
			}
		}
	}
	if m.K > 1 {
		fmt.Printf("  most similar classes: %d vs %d (cos %.3f)\n", wa, wb, worst)
	}
}
