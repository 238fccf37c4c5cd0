package fl

import (
	"math/rand"

	"fhdnn/internal/dataset"
	"fhdnn/internal/fedcore"
	"fhdnn/internal/nn"
	"fhdnn/internal/tensor"
)

// Network is any CNN trainable by FedAvg; both *nn.Sequential and
// *nn.ResNet satisfy it.
type Network interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(grad *tensor.Tensor) *tensor.Tensor
	Params() []*nn.Param
}

// CNNTrainer runs FedAvg (McMahan et al.) over a CNN: each round the
// sampled clients copy the global weights, run E local epochs of SGD, and
// upload their weights through the (possibly lossy) uplink; the server
// averages the received weights, weighted by local dataset size
// (fedcore.FedAvg).
//
// The round loop is fedcore.Engine; this type supplies the SGD local
// update and keeps one model replica per worker. Each client's randomness
// is derived from (seed, round, id), so results do not depend on the
// worker count.
type CNNTrainer struct {
	Cfg   Config
	Build func(rng *rand.Rand) Network // architecture factory
	Train *dataset.Dataset
	Test  *dataset.Dataset
	Part  dataset.Partition

	LR       float64
	Momentum float64
}

// Run executes the configured number of rounds and returns the metric
// history together with the trained global network.
func (t *CNNTrainer) Run() (*History, Network) {
	if err := t.Cfg.Validate(); err != nil {
		panic(err)
	}
	global := t.Build(rand.New(rand.NewSource(t.Cfg.Seed + 1)))
	globalFlat := nn.FlattenParams(global.Params())

	var locals []Network
	hist := &History{}
	eng := &fedcore.Engine{
		Clients:   t.Cfg.NumClients,
		Fraction:  t.Cfg.ClientFraction,
		Rounds:    t.Cfg.Rounds,
		Seed:      t.Cfg.Seed,
		Parallel:  t.Cfg.Parallel,
		Uplink:    t.Cfg.Uplink,
		SampleRNG: rand.New(rand.NewSource(t.Cfg.Seed)),
		Agg:       &fedcore.FedAvg{},
		Global:    globalFlat,
		Train: func(worker, _, id int, rng *rand.Rand) (fedcore.Update, bool) {
			idx := t.Part[id]
			if len(idx) == 0 {
				return fedcore.Update{}, false
			}
			local := locals[worker]
			nn.SetFlatParams(local.Params(), globalFlat)
			loss := t.trainClient(local, idx, rng)
			return fedcore.Update{
				Params:  nn.FlattenParams(local.Params()),
				Samples: len(idx),
				Loss:    loss,
			}, true
		},
		AfterCommit: func(int) { nn.SetFlatParams(global.Params(), globalFlat) },
		Evaluate:    func() float64 { return EvalNetwork(global, t.Test, 64) },
		OnRound:     hist.Append,
	}
	locals = make([]Network, eng.Workers())
	for w := range locals {
		// all workers share the same (irrelevant) init; weights are
		// overwritten from the global model before every client run
		locals[w] = t.Build(rand.New(rand.NewSource(t.Cfg.Seed + 1)))
	}
	eng.Run()
	return hist, global
}

// trainClient runs E epochs of minibatch SGD on one client's shard and
// returns the mean loss of the final epoch.
func (t *CNNTrainer) trainClient(net Network, idx []int, rng *rand.Rand) float64 {
	opt := nn.NewSGD(t.LR, t.Momentum, 0)
	var lastLoss float64
	for epoch := 0; epoch < t.Cfg.LocalEpochs; epoch++ {
		perm := make([]int, len(idx))
		for i, p := range rng.Perm(len(idx)) {
			perm[i] = idx[p]
		}
		var epochLoss float64
		batches := dataset.Batches(len(perm), t.Cfg.BatchSize, perm)
		for _, b := range batches {
			x, labels := t.Train.Gather(b)
			nn.ZeroGrad(net.Params())
			logits := net.Forward(x, true)
			loss, grad := nn.CrossEntropy(logits, labels)
			net.Backward(grad)
			opt.Step(net.Params())
			epochLoss += loss
		}
		lastLoss = epochLoss / float64(len(batches))
	}
	return lastLoss
}

// EvalNetwork measures classification accuracy of net on ds using the given
// evaluation batch size.
func EvalNetwork(net Network, ds *dataset.Dataset, batch int) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	for _, b := range dataset.Batches(ds.Len(), batch, nil) {
		x, labels := ds.Gather(b)
		logits := net.Forward(x, false)
		k := logits.Dim(1)
		for s := range b {
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
	}
	return float64(correct) / float64(ds.Len())
}
