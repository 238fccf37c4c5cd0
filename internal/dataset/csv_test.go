package dataset

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// csvOf renders d in the label-first CSV form the readers parse.
func csvOf(d *Dataset) *bytes.Buffer {
	var buf bytes.Buffer
	sl := d.SampleLen()
	for i := 0; i < d.Len(); i++ {
		buf.WriteString(strconv.Itoa(d.Labels[i]))
		for _, v := range d.X.Data()[i*sl : (i+1)*sl] {
			buf.WriteByte(',')
			buf.WriteString(strconv.FormatFloat(float64(v), 'g', -1, 32))
		}
		buf.WriteByte('\n')
	}
	return &buf
}

func TestCSVRoundTripImages(t *testing.T) {
	train, _ := GenerateImages(MNISTLike(8, 3, 1, 7))
	got, err := ReadCSVImages(csvOf(train), "mnist", 10, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != train.Len() || got.NumClasses != 10 {
		t.Fatalf("round trip %d examples", got.Len())
	}
	if !got.X.Equal(train.X, 1e-6) {
		t.Fatal("pixel values corrupted in CSV round trip")
	}
	for i := range train.Labels {
		if got.Labels[i] != train.Labels[i] {
			t.Fatal("labels corrupted")
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad label":    "x,1,2,3,4\n",
		"neg label":    "-1,1,2,3,4\n",
		"big label":    "9,1,2,3,4\n",
		"bad value":    "0,1,zzz,3,4\n",
		"wrong column": "0,1\n",
	}
	for name, body := range cases {
		if _, err := ReadCSVImages(strings.NewReader(body), "t", 3, 1, 2); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestReadCSVValid(t *testing.T) {
	body := "0,1.5,-2,0,0\n2,0.25,3,1,1\n"
	d, err := ReadCSVImages(strings.NewReader(body), "t", 3, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Labels[1] != 2 || d.X.At(0, 0, 0, 1) != -2 {
		t.Fatalf("parsed %+v", d)
	}
}
