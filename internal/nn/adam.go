package nn

import (
	"math"

	"fhdnn/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba, 2015) with decoupled weight
// decay (AdamW-style: decay is applied to the weights directly, not mixed
// into the moment estimates).
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step int
	m    map[*Param]*tensor.Tensor
	v    map[*Param]*tensor.Tensor
}

// NewAdam constructs an optimizer with the conventional defaults
// beta1=0.9, beta2=0.999, eps=1e-8.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		m: make(map[*Param]*tensor.Tensor),
		v: make(map[*Param]*tensor.Tensor),
	}
}

// Step applies one Adam update to every parameter.
func (o *Adam) Step(params []*Param) {
	o.step++
	b1c := 1 - math.Pow(o.Beta1, float64(o.step))
	b2c := 1 - math.Pow(o.Beta2, float64(o.step))
	for _, p := range params {
		m, ok := o.m[p]
		if !ok {
			m = tensor.New(p.W.Shape()...)
			o.m[p] = m
			o.v[p] = tensor.New(p.W.Shape()...)
		}
		v := o.v[p]
		w := p.W.Data()
		g := p.Grad.Data()
		md := m.Data()
		vd := v.Data()
		for i := range w {
			gi := float64(g[i])
			md[i] = float32(float64(o.Beta1*float64(md[i])) + float64((1-o.Beta1)*gi))
			vd[i] = float32(float64(o.Beta2*float64(vd[i])) + float64((1-o.Beta2)*gi*gi))
			mHat := float64(md[i]) / b1c
			vHat := float64(vd[i]) / b2c
			upd := o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
			if o.WeightDecay != 0 && !p.NoDecay {
				upd += float64(o.LR * o.WeightDecay * float64(w[i]))
			}
			w[i] -= float32(upd)
		}
	}
}

// Reset clears the moment estimates and step counter.
func (o *Adam) Reset() {
	o.step = 0
	o.m = make(map[*Param]*tensor.Tensor)
	o.v = make(map[*Param]*tensor.Tensor)
}

// Optimizer is satisfied by both SGD and Adam, so training loops can take
// either.
type Optimizer interface {
	Step(params []*Param)
}

var (
	_ Optimizer = (*SGD)(nil)
	_ Optimizer = (*Adam)(nil)
)
