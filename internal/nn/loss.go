package nn

import (
	"fmt"
	"math"

	"fhdnn/internal/tensor"
)

// Softmax computes row-wise softmax probabilities of logits [n, k] into a
// new tensor, using the max-subtraction trick for numerical stability.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	n, k := logits.Dim(0), logits.Dim(1)
	out := tensor.New(n, k)
	for s := 0; s < n; s++ {
		row := logits.Data()[s*k : (s+1)*k]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		orow := out.Data()[s*k : (s+1)*k]
		for i, v := range row {
			e := math.Exp(float64(v - maxV))
			orow[i] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for i := range orow {
			orow[i] *= inv
		}
	}
	return out
}

// CrossEntropy computes the mean softmax cross-entropy loss of logits
// [n, k] against integer labels, and the gradient w.r.t. the logits
// (already divided by the batch size).
func CrossEntropy(logits *tensor.Tensor, labels []int) (loss float64, grad *tensor.Tensor) {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: CrossEntropy got %d labels for batch of %d", len(labels), n))
	}
	probs := Softmax(logits)
	grad = probs.Clone()
	invN := float32(1 / float64(n))
	for s := 0; s < n; s++ {
		y := labels[s]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		p := float64(probs.At(s, y))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grad.Set(grad.At(s, y)-1, s, y)
	}
	loss /= float64(n)
	grad.Scale(invN)
	return loss, grad
}

// Accuracy returns the fraction of rows of logits whose argmax equals the
// label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, k := logits.Dim(0), logits.Dim(1)
	correct := 0
	for s := 0; s < n; s++ {
		row := logits.Data()[s*k : (s+1)*k]
		best, bi := row[0], 0
		for i, v := range row[1:] {
			if v > best {
				best, bi = v, i+1
			}
		}
		if bi == labels[s] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// NTXent computes the normalized-temperature cross-entropy loss of SimCLR
// (Chen et al., 2020) over a batch of 2n projected embeddings z [2n, d],
// where rows i and i+n are the two augmented views of the same image. It
// returns the loss and the gradient w.r.t. z.
func NTXent(z *tensor.Tensor, temperature float64) (float64, *tensor.Tensor) {
	twoN, d := z.Dim(0), z.Dim(1)
	if twoN%2 != 0 || twoN < 4 {
		panic(fmt.Sprintf("nn: NTXent needs an even batch of >= 4 embeddings, got %d", twoN))
	}
	n := twoN / 2

	// L2-normalize rows; keep norms to backprop through the normalization.
	zn := tensor.New(twoN, d)
	norms := make([]float64, twoN)
	for i := 0; i < twoN; i++ {
		row := z.Data()[i*d : (i+1)*d]
		s := 0.0
		for _, v := range row {
			s += float64(float64(v) * float64(v))
		}
		nv := math.Sqrt(s)
		if nv < 1e-12 {
			nv = 1e-12
		}
		norms[i] = nv
		orow := zn.Data()[i*d : (i+1)*d]
		inv := float32(1 / nv)
		for j, v := range row {
			orow[j] = v * inv
		}
	}

	// Cosine similarity matrix / temperature.
	sim := tensor.MatMulTransB(zn, zn) // [2n, 2n]
	invT := 1 / temperature

	loss := 0.0
	// dL/dsim accumulated here.
	dSim := tensor.New(twoN, twoN)
	for i := 0; i < twoN; i++ {
		pos := (i + n) % twoN
		// softmax over j != i of sim[i,j]/T
		maxV := math.Inf(-1)
		for j := 0; j < twoN; j++ {
			if j == i {
				continue
			}
			v := float64(sim.At(i, j)) * invT
			if v > maxV {
				maxV = v
			}
		}
		denom := 0.0
		for j := 0; j < twoN; j++ {
			if j == i {
				continue
			}
			denom += math.Exp(float64(float64(sim.At(i, j))*invT) - maxV)
		}
		logDenom := math.Log(denom) + maxV
		posV := float64(float64(sim.At(i, pos)) * invT)
		loss += logDenom - posV
		// gradient: dL_i/dsim[i,j] = (softmax_j - 1{j==pos}) / T
		for j := 0; j < twoN; j++ {
			if j == i {
				continue
			}
			p := math.Exp(float64(float64(sim.At(i, j))*invT)-maxV) / denom
			g := float64(p * invT)
			if j == pos {
				g -= invT
			}
			dSim.Set(dSim.At(i, j)+float32(g/float64(twoN)), i, j)
		}
	}
	loss /= float64(twoN)

	// Backprop through sim = zn zn^T: dZn = (dSim + dSim^T) zn.
	dSimSym := tensor.New(twoN, twoN)
	for i := 0; i < twoN; i++ {
		for j := 0; j < twoN; j++ {
			dSimSym.Set(dSim.At(i, j)+dSim.At(j, i), i, j)
		}
	}
	dZn := tensor.MatMul(dSimSym, zn) // [2n, d]

	// Backprop through row normalization: if u = z/||z||,
	// dz = (du - u (u . du)) / ||z||.
	dZ := tensor.New(twoN, d)
	for i := 0; i < twoN; i++ {
		u := zn.Data()[i*d : (i+1)*d]
		du := dZn.Data()[i*d : (i+1)*d]
		dot := 0.0
		for j := range u {
			dot += float64(float64(u[j]) * float64(du[j]))
		}
		inv := float32(1 / norms[i])
		out := dZ.Data()[i*d : (i+1)*d]
		for j := range u {
			out[j] = (du[j] - float32(u[j]*float32(dot))) * inv
		}
	}
	return loss, dZ
}
