// Command fhdnn-train trains an FHDnn classifier on a local dataset and
// writes the full model checkpoint (extractor + encoder + HD prototypes)
// that fhdnn-inspect reads. Input is either a CSV file
// (label-first rows, see internal/dataset) or the MNIST IDX pair, or — with
// no input flags — the synthetic CIFAR-like benchmark data.
//
// Usage:
//
//	fhdnn-train -csv data.csv -classes 10 -channels 3 -size 32 -out model.fhdnn
//	fhdnn-train -idx-images train-images-idx3-ubyte -idx-labels train-labels-idx1-ubyte -out model.fhdnn
//	fhdnn-train -out model.fhdnn          # synthetic demo data
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"fhdnn/internal/core"
	"fhdnn/internal/dataset"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "fhdnn-train:", err)
		os.Exit(1)
	}
}

func run() error {
	csvPath := flag.String("csv", "", "label-first CSV dataset")
	idxImages := flag.String("idx-images", "", "IDX images file (MNIST format)")
	idxLabels := flag.String("idx-labels", "", "IDX labels file (pair of -idx-images)")
	classes := flag.Int("classes", 10, "number of classes")
	channels := flag.Int("channels", 3, "image channels (CSV input)")
	size := flag.Int("size", 8, "image side length")
	hdDim := flag.Int("dim", 4096, "hypervector dimensionality")
	width := flag.Int("width", 8, "random-conv extractor width")
	epochs := flag.Int("epochs", 5, "refinement epochs")
	testFrac := flag.Float64("test-frac", 0.2, "held-out fraction for evaluation")
	seed := flag.Int64("seed", 1, "pipeline seed")
	out := flag.String("out", "model.fhdnn", "checkpoint output path")
	flag.Parse()

	ds, err := loadData(*csvPath, *idxImages, *idxLabels, *classes, *channels, *size, *seed)
	if err != nil {
		return err
	}
	if ds.X.NumDims() != 4 {
		return fmt.Errorf("fhdnn-train expects image data, got shape %v", ds.X.Shape())
	}
	imgSize := ds.X.Dim(2)
	if imgSize%2 != 0 {
		return fmt.Errorf("image size %d must be even for the extractor", imgSize)
	}

	rng := rand.New(rand.NewSource(*seed))
	train, test := dataset.SplitStratified(ds, *testFrac, rng)
	log.Printf("dataset %q: %d train / %d test, %d classes, %v per example",
		ds.Name, train.Len(), test.Len(), ds.NumClasses, ds.SampleShape())

	ext := core.NewRandomConvExtractor(*seed, ds.X.Dim(1), *width, imgSize)
	model := core.New(ext, core.Config{
		HDDim: *hdDim, NumClasses: ds.NumClasses, Seed: *seed, Binarize: true})
	log.Printf("pipeline: %s -> %d features -> d=%d hypervectors (update %d KB)",
		ext.Name(), ext.Dim(), *hdDim, model.UpdateSizeBytes()/1024)

	model.TrainCentralized(train, *epochs)
	log.Printf("train accuracy %.3f, test accuracy %.3f",
		model.Accuracy(train), model.Accuracy(test))

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := model.Save(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	info, _ := os.Stat(*out)
	log.Printf("checkpoint written to %s (%d bytes)", *out, info.Size())
	return nil
}

func loadData(csvPath, idxImages, idxLabels string, classes, channels, size int, seed int64) (_ *dataset.Dataset, err error) {
	switch {
	case csvPath != "":
		f, openErr := os.Open(csvPath)
		if openErr != nil {
			return nil, openErr
		}
		defer func() { err = errors.Join(err, f.Close()) }()
		return dataset.ReadCSVImages(f, csvPath, classes, channels, size)
	case idxImages != "" || idxLabels != "":
		if idxImages == "" || idxLabels == "" {
			return nil, fmt.Errorf("need both -idx-images and -idx-labels")
		}
		imgF, openErr := os.Open(idxImages)
		if openErr != nil {
			return nil, openErr
		}
		defer func() { err = errors.Join(err, imgF.Close()) }()
		labF, openErr := os.Open(idxLabels)
		if openErr != nil {
			return nil, openErr
		}
		defer func() { err = errors.Join(err, labF.Close()) }()
		return dataset.LoadIDX(imgF, labF, idxImages, classes)
	default:
		train, _ := dataset.GenerateImages(dataset.CIFAR10Like(size, 50, 1, seed))
		return train, nil
	}
}
