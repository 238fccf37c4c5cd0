package nn

import "fhdnn/internal/tensor"

// SGD is stochastic gradient descent with classical momentum and decoupled
// L2 weight decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	velocity    map[*Param]*tensor.Tensor
}

// NewSGD constructs an optimizer. Momentum 0 disables the velocity buffers.
func NewSGD(lr, momentum, weightDecay float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*Param]*tensor.Tensor)}
}

// Step applies one update to every parameter:
//
//	g    = grad + wd*w        (wd skipped for NoDecay params)
//	v    = momentum*v - lr*g
//	w   += v
func (o *SGD) Step(params []*Param) {
	lr := float32(o.LR)
	mu := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	for _, p := range params {
		w := p.W.Data()
		g := p.Grad.Data()
		if o.Momentum == 0 {
			for i := range w {
				gi := g[i]
				if wd != 0 && !p.NoDecay {
					gi += float32(wd * w[i])
				}
				w[i] -= float32(lr * gi)
			}
			continue
		}
		v, ok := o.velocity[p]
		if !ok {
			v = tensor.New(p.W.Shape()...)
			o.velocity[p] = v
		}
		vd := v.Data()
		for i := range w {
			gi := g[i]
			if wd != 0 && !p.NoDecay {
				gi += float32(wd * w[i])
			}
			vd[i] = float32(mu*vd[i]) - float32(lr*gi)
			w[i] += vd[i]
		}
	}
}
