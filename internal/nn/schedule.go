package nn

import "math"

// Schedule maps a 0-based step index to a learning rate. Schedules matter
// for the SimCLR pretraining stage (contrastive training is sensitive to
// the decay shape) and for squeezing the last accuracy out of the CNN
// baselines.
type Schedule interface {
	LR(step int) float64
}

// ConstantLR always returns the same rate.
type ConstantLR struct {
	Rate float64
}

// LR implements Schedule.
func (s ConstantLR) LR(int) float64 { return s.Rate }

// StepLR multiplies the base rate by Gamma every StepSize steps.
type StepLR struct {
	Base     float64
	Gamma    float64
	StepSize int
}

// LR implements Schedule.
func (s StepLR) LR(step int) float64 {
	if s.StepSize <= 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Gamma, float64(step/s.StepSize))
}

// CosineLR anneals from Base to Min over Total steps, then stays at Min.
type CosineLR struct {
	Base  float64
	Min   float64
	Total int
}

// LR implements Schedule.
func (s CosineLR) LR(step int) float64 {
	if s.Total <= 0 || step >= s.Total {
		return s.Min
	}
	frac := float64(step) / float64(s.Total)
	return s.Min + float64(0.5*(s.Base-s.Min)*(1+math.Cos(math.Pi*frac)))
}

// WarmupLR ramps linearly from 0 to the inner schedule's rate over Warmup
// steps, then defers to it.
type WarmupLR struct {
	Warmup int
	Inner  Schedule
}

// LR implements Schedule.
func (s WarmupLR) LR(step int) float64 {
	base := s.Inner.LR(step)
	if s.Warmup <= 0 || step >= s.Warmup {
		return base
	}
	return base * float64(step+1) / float64(s.Warmup)
}

// StepWith updates the optimizer's rate from the schedule and applies one
// optimization step.
func (o *SGD) StepWith(sched Schedule, step int, params []*Param) {
	o.LR = sched.LR(step)
	o.Step(params)
}
