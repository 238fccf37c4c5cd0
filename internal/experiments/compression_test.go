package experiments

import (
	"strings"
	"testing"

	"fhdnn/internal/fl"
)

var emptyHistory fl.History

func TestCompressionComparison(t *testing.T) {
	forSeeds(t, tiny(), func(t *testing.T, s Scale) {
		s.Rounds = 5
		rows := CompressionComparison(s)
		if len(rows) != 5 {
			t.Fatalf("got %d rows", len(rows))
		}
		byName := map[string]CompressionRow{}
		for _, r := range rows {
			byName[r.Strategy] = r
		}
		fp32 := byName["CNN float32"]
		fp16 := byName["CNN float16"]
		int8 := byName["CNN int8"]
		topk := byName["CNN top-10%"]
		fhd := byName["FHDnn"]

		// traffic ordering: fp32 > fp16 > int8 > topk
		if !(fp32.BytesPerRound > fp16.BytesPerRound &&
			fp16.BytesPerRound > int8.BytesPerRound &&
			int8.BytesPerRound > topk.BytesPerRound) {
			t.Fatalf("traffic ordering wrong: %d %d %d %d",
				fp32.BytesPerRound, fp16.BytesPerRound, int8.BytesPerRound, topk.BytesPerRound)
		}
		// relative traffic of fp16 is ~0.5, int8 ~0.25
		if fp16.RelTraffic < 0.45 || fp16.RelTraffic > 0.55 {
			t.Fatalf("fp16 relative traffic %v", fp16.RelTraffic)
		}
		if int8.RelTraffic < 0.2 || int8.RelTraffic > 0.3 {
			t.Fatalf("int8 relative traffic %v", int8.RelTraffic)
		}
		// lossless-ish compression should not destroy CNN accuracy relative
		// to fp32 (both may be low at tiny scale, but fp16 tracks fp32)
		if fp16.Accuracy < fp32.Accuracy-0.15 {
			t.Fatalf("fp16 accuracy %v collapsed vs fp32 %v", fp16.Accuracy, fp32.Accuracy)
		}
		// the paper's point: FHDnn beats every compressed-CNN point on
		// accuracy at far lower traffic
		if fhd.Accuracy <= fp32.Accuracy {
			t.Fatalf("FHDnn %v should beat CNN %v", fhd.Accuracy, fp32.Accuracy)
		}
		// NOTE: at this miniature scale the toy ResNet has fewer parameters
		// than the HD model, so absolute traffic favors the CNN here; the
		// paper-scale accounting (11.17M-param ResNet vs 100K-entry HD model)
		// is what the `comm` experiment covers. This test only checks that
		// codec traffic ratios and accuracy behave correctly.
		if fhd.BytesPerRound <= 0 {
			t.Fatal("FHDnn traffic accounting missing")
		}
		out := CompressionTable(rows).String()
		if !strings.Contains(out, "FHDnn") {
			t.Fatal("table rendering broken")
		}
	})
}

func TestMeanBytesEmptyHistory(t *testing.T) {
	if meanBytes(&emptyHistory) != 0 {
		t.Fatal("empty history mean bytes must be 0")
	}
}
