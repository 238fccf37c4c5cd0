package tensor

import (
	"math/rand"
	"testing"
)

func BenchmarkMatMul64(b *testing.B)  { benchMatMul(b, 64) }
func BenchmarkMatMul256(b *testing.B) { benchMatMul(b, 256) }

func benchMatMul(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, n, n)
	y := Randn(rng, 1, n, n)
	dst := New(n, n)
	b.SetBytes(int64(8 * n * n * n)) // ~2n^3 flops at 4 bytes read/write
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := Randn(rng, 1, 128, 256)
	y := Randn(rng, 1, 128, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(x, y)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	g := ConvGeom{InC: 16, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	img := Randn(rng, 1, g.InC*g.InH*g.InW).Data()
	col := make([]float32, g.ColRows()*g.ColCols())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Im2Col(img, col)
	}
}

func BenchmarkCol2Im(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := ConvGeom{InC: 16, InH: 32, InW: 32, KH: 3, KW: 3, Stride: 1, Pad: 1}
	col := Randn(rng, 1, g.ColRows()*g.ColCols()).Data()
	img := make([]float32, g.InC*g.InH*g.InW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Col2Im(col, img)
	}
}

func BenchmarkMaxPool2D(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	img := Randn(rng, 1, 16*32*32).Data()
	out, argmax := make([]float32, 16*16*16), make([]int32, 16*16*16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxPool2DInto(img, 16, 32, 32, 2, 2, out, argmax)
	}
}
