package core

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"fhdnn/internal/nn"
)

func TestFHDnnSaveLoadRoundTrip(t *testing.T) {
	train, test, _ := testData(t, 20, 3)
	f := testFHDnn(20)
	f.TrainCentralized(train, 3)
	want := f.Accuracy(test)

	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// a freshly assembled model with different seed weights
	g := testFHDnn(99)
	if g.Accuracy(test) == want {
		t.Skip("fresh model accidentally matches; pick another seed")
	}
	if err := g.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := g.Accuracy(test); got != want {
		t.Fatalf("restored accuracy %v, want %v", got, want)
	}
	// predictions must agree exactly
	p1 := f.Predict(test.X)
	p2 := g.Predict(test.X)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("restored model predicts differently")
		}
	}
}

func TestFHDnnLoadRejectsMismatchedDims(t *testing.T) {
	train, _, _ := testData(t, 21, 3)
	f := testFHDnn(21)
	f.TrainCentralized(train, 1)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// different HD dimension
	other := New(NewRandomConvExtractor(21, 1, 4, 8), Config{HDDim: 512, NumClasses: 3, Seed: 21, Binarize: true})
	if err := other.Load(&buf); err == nil {
		t.Fatal("dimension mismatch must be rejected")
	}
}

func TestFHDnnLoadTruncated(t *testing.T) {
	train, _, _ := testData(t, 22, 3)
	f := testFHDnn(22)
	f.TrainCentralized(train, 1)
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()/2]
	g := testFHDnn(22)
	if err := g.Load(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated checkpoint must fail")
	}
}

// TestFHDnnLoadFailureLeavesReceiverUnchanged cuts a checkpoint inside
// each of its three sections (extractor, encoder, model) and asserts a
// failed Load changes nothing: the receiver keeps its extractor weights
// bit for bit, its encoder and model, and so its predictions.
func TestFHDnnLoadFailureLeavesReceiverUnchanged(t *testing.T) {
	train, test, _ := testData(t, 23, 3)
	f := testFHDnn(23)
	f.TrainCentralized(train, 1)
	var ext, enc, full bytes.Buffer
	if err := nn.SaveParams(&ext, f.Extractor.Net.Params()); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Encoder.WriteTo(&enc); err != nil {
		t.Fatal(err)
	}
	if err := f.Save(&full); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		section string
		cut     int
	}{
		{"extractor", ext.Len() / 2},
		{"encoder", ext.Len() + enc.Len()/2},
		{"model", full.Len() - 100},
	} {
		g := testFHDnn(98)
		g.TrainCentralized(train, 1)
		params := g.Extractor.Net.Params()
		wantW := nn.FlattenParams(params)
		wantPred := g.Predict(test.X)
		encoder, model := g.Encoder, g.Model
		if err := g.Load(bytes.NewReader(full.Bytes()[:c.cut])); err == nil {
			t.Fatalf("%s cut: truncated checkpoint loaded", c.section)
		}
		if g.Encoder != encoder || g.Model != model {
			t.Errorf("%s cut: failed Load replaced the encoder or model", c.section)
		}
		for i, w := range nn.FlattenParams(params) {
			if math.Float32bits(w) != math.Float32bits(wantW[i]) {
				t.Errorf("%s cut: extractor weight %d changed by a failed Load", c.section, i)
				break
			}
		}
		for i, p := range g.Predict(test.X) {
			if p != wantPred[i] {
				t.Errorf("%s cut: prediction %d changed by a failed Load", c.section, i)
				break
			}
		}
	}
}

// failingWriter takes the first n bytes written to it and fails the Write
// that would go past them. It fails only once and takes every later Write
// whole, as a transient fault would, so a serializer that drops the error
// runs on to a nil return.
type failingWriter struct {
	n      int
	failed bool
}

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		return len(p), nil
	}
	if len(p) > w.n {
		w.failed = true
		return w.n, errWriteFailed
	}
	w.n -= len(p)
	return len(p), nil
}

// Every model and checkpoint writer returns its writer's error, wherever
// in the stream the writer fails: for every n below the full length, a
// writer that fails after n bytes makes the call fail with that error.
func TestWritersReturnWriteErrors(t *testing.T) {
	f := New(NewRandomConvExtractor(24, 1, 4, 8), Config{HDDim: 64, NumClasses: 3, Seed: 24, Binarize: true})
	for _, c := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"hdc.Model.WriteTo", func(w io.Writer) error { _, err := f.Model.WriteTo(w); return err }},
		{"hdc.Encoder.WriteTo", func(w io.Writer) error { _, err := f.Encoder.WriteTo(w); return err }},
		{"nn.SaveParams", func(w io.Writer) error { return nn.SaveParams(w, f.Extractor.Net.Params()) }},
		{"core.FHDnn.Save", f.Save},
	} {
		var full bytes.Buffer
		if err := c.write(&full); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for n := 0; n < full.Len(); n++ {
			if err := c.write(&failingWriter{n: n}); !errors.Is(err, errWriteFailed) {
				t.Errorf("%s: writer fails after %d of %d bytes: got error %v, want %v", c.name, n, full.Len(), err, errWriteFailed)
				break
			}
		}
	}
}
