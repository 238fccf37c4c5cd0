package nn

import (
	"math/rand"
	"sync"
	"testing"

	"fhdnn/internal/tensor"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	old := tensor.SetWorkers(n)
	t.Cleanup(func() { tensor.SetWorkers(old) })
}

// convFixture rebuilds an identical layer + batch from fixed seeds so each
// worker-count run starts from the same parameters and zero gradients.
func convFixture() (*Conv2D, *tensor.Tensor) {
	c := NewConv2D(rand.New(rand.NewSource(3)), 2, 4, 3, 1, 1, true)
	x := tensor.Randn(rand.New(rand.NewSource(4)), 1, 6, 2, 8, 8)
	return c, x
}

// TestConv2DBitIdenticalAcrossWorkers locks in the determinism contract of
// the pooled layers: forward outputs, input gradients, weight gradients
// (fixed-grain block partials) and bias gradients are all bit-identical for
// every worker-pool size.
func TestConv2DBitIdenticalAcrossWorkers(t *testing.T) {
	withWorkers(t, 1)
	cRef, x := convFixture()
	outRef := cRef.Forward(x, true)
	gradRef := cRef.Backward(outRef.Clone())

	for _, w := range []int{2, 3, 8} {
		old := tensor.SetWorkers(w)
		c, _ := convFixture()
		out := c.Forward(x, true)
		if !out.Equal(outRef, 0) {
			t.Fatalf("workers=%d: forward output diverged", w)
		}
		gradIn := c.Backward(out.Clone())
		if !gradIn.Equal(gradRef, 0) {
			t.Fatalf("workers=%d: input gradient diverged", w)
		}
		for pi, p := range c.Params() {
			ref := cRef.Params()[pi].Grad
			if !p.Grad.Equal(ref, 0) {
				t.Fatalf("workers=%d: gradient of %s diverged", w, p.Name)
			}
		}
		tensor.SetWorkers(old)
	}
}

func TestPoolingLayersBitIdenticalAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 1, 7, 3, 8, 8)
	grads := tensor.Randn(rng, 1, 7, 3, 4, 4)
	gapGrad := tensor.Randn(rng, 1, 7, 3)

	type result struct{ out, back *tensor.Tensor }
	run := func() map[string]result {
		res := map[string]result{}
		mp := NewMaxPool2D(2)
		o := mp.Forward(x, true)
		res["maxpool"] = result{o, mp.Backward(grads)}
		ap := NewAvgPool2D(2)
		o = ap.Forward(x, true)
		res["avgpool"] = result{o, ap.Backward(grads)}
		gp := &GlobalAvgPool{}
		o = gp.Forward(x, true)
		res["gap"] = result{o, gp.Backward(gapGrad)}
		return res
	}

	withWorkers(t, 1)
	ref := run()
	for _, w := range []int{2, 3, 8} {
		old := tensor.SetWorkers(w)
		got := run()
		for name, r := range got {
			if !r.out.Equal(ref[name].out, 0) {
				t.Fatalf("workers=%d: %s forward diverged", w, name)
			}
			if !r.back.Equal(ref[name].back, 0) {
				t.Fatalf("workers=%d: %s backward diverged", w, name)
			}
		}
		tensor.SetWorkers(old)
	}
}

func TestLinearBitIdenticalAcrossWorkers(t *testing.T) {
	x := tensor.Randn(rand.New(rand.NewSource(6)), 1, 9, 40)
	build := func() *Linear { return NewLinear(rand.New(rand.NewSource(7)), 40, 12) }

	withWorkers(t, 1)
	lRef := build()
	outRef := lRef.Forward(x, true)
	backRef := lRef.Backward(outRef.Clone())
	for _, w := range []int{2, 3, 8} {
		old := tensor.SetWorkers(w)
		l := build()
		out := l.Forward(x, true)
		if !out.Equal(outRef, 0) {
			t.Fatalf("workers=%d: forward diverged", w)
		}
		back := l.Backward(out.Clone())
		if !back.Equal(backRef, 0) {
			t.Fatalf("workers=%d: input gradient diverged", w)
		}
		for pi, p := range l.Params() {
			if !p.Grad.Equal(lRef.Params()[pi].Grad, 0) {
				t.Fatalf("workers=%d: gradient of %s diverged", w, p.Name)
			}
		}
		tensor.SetWorkers(old)
	}
}

// TestLayersConcurrentHammer drives independent layer instances from many
// goroutines over the shared worker pool, as concurrent simulated federated
// clients do. Run with -race; it exercises the pool's semaphore under
// nesting (per-sample ParallelFor containing parallel matmuls).
func TestLayersConcurrentHammer(t *testing.T) {
	withWorkers(t, 4)
	x := tensor.Randn(rand.New(rand.NewSource(8)), 1, 6, 2, 8, 8)
	withWorkersRef := func() (*tensor.Tensor, *tensor.Tensor) {
		c, _ := convFixture()
		out := c.Forward(x, true)
		return out, c.Backward(out.Clone())
	}
	wantOut, wantGrad := withWorkersRef()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, _ := convFixture()
			for it := 0; it < 20; it++ {
				ZeroGrad(c.Params())
				out := c.Forward(x, true)
				if !out.Equal(wantOut, 0) {
					t.Error("concurrent forward diverged")
					return
				}
				grad := c.Backward(out.Clone())
				if !grad.Equal(wantGrad, 0) {
					t.Error("concurrent backward diverged")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestParallelTrainingStillLearns(t *testing.T) {
	withWorkers(t, 4)
	rng := rand.New(rand.NewSource(4))
	net := NewSequential(
		NewConv2D(rng, 1, 4, 3, 1, 1, false),
		&ReLU{},
		&Flatten{},
		NewLinear(rng, 4*6*6, 2),
	)
	n := 12
	x := tensor.New(n, 1, 6, 6)
	labels := make([]int, n)
	for s := 0; s < n; s++ {
		labels[s] = s % 2
		v := float32(-1)
		if labels[s] == 1 {
			v = 1
		}
		for i := 0; i < 36; i++ {
			x.Data()[s*36+i] = v + float32(float32(rng.NormFloat64())*0.2)
		}
	}
	opt := NewSGD(0.05, 0.9, 0)
	for it := 0; it < 40; it++ {
		ZeroGrad(net.Params())
		logits := net.Forward(x, true)
		_, grad := CrossEntropy(logits, labels)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	logits := net.Forward(x, false)
	if acc := Accuracy(logits, labels); acc < 1 {
		t.Fatalf("parallel training accuracy %v", acc)
	}
}
