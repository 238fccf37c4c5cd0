package fl

import (
	"fmt"
	"math"

	"fhdnn/internal/dataset"
	"fhdnn/internal/hdc"
	"fhdnn/internal/tensor"
)

// AsyncHDTrainer simulates asynchronous federated bundling: there are no
// rounds and no barrier — every client trains at its own pace and the
// server folds each update in the moment it arrives, discounted by its
// staleness (FedBuff/FedAsync style). Synchronous FedAvg pays the
// straggler tax measured by the fleet experiment; asynchronous aggregation
// is its standard antidote, and HD models suit it unusually well because
// aggregation is linear — a stale delta is still a valid bundle
// contribution.
//
// The simulation is event-driven over virtual time: client i finishes an
// iteration every Delay[i] seconds, uploads its *delta* against the global
// model it started from, and immediately starts the next iteration from
// the fresh global model.
type AsyncHDTrainer struct {
	Encoded    *tensor.Tensor // [nTrain, d]
	Labels     []int
	TestEnc    *tensor.Tensor
	TestLabels []int
	NumClasses int
	Part       dataset.Partition

	// Delay is each client's train+upload duration in virtual seconds.
	Delay []float64
	// Horizon is the simulated wall-clock budget.
	Horizon float64
	// LocalEpochs is the per-iteration refinement budget (paper E).
	LocalEpochs int
	// StalenessAlpha controls the discount w = 1/(1+staleness)^alpha,
	// where staleness counts server merges since the client fetched.
	// 0 disables discounting.
	StalenessAlpha float64
	// EvalEvery samples test accuracy every this many virtual seconds.
	EvalEvery float64
}

// AsyncPoint is one sample of the accuracy-versus-virtual-time trace.
type AsyncPoint struct {
	Time     float64
	Accuracy float64
	Merges   int
}

// AsyncResult is the outcome of an asynchronous run.
type AsyncResult struct {
	Trace  []AsyncPoint
	Merges int
	Model  *hdc.Model
}

// Run executes the simulation.
func (t *AsyncHDTrainer) Run() *AsyncResult {
	n := len(t.Part)
	if n == 0 || len(t.Delay) != n {
		panic(fmt.Sprintf("fl: async needs one delay per client (%d clients, %d delays)", n, len(t.Delay)))
	}
	if t.Horizon <= 0 || t.LocalEpochs <= 0 {
		panic("fl: async needs a positive horizon and local epochs")
	}
	if t.EvalEvery <= 0 {
		t.EvalEvery = t.Horizon / 20
	}
	d := t.Encoded.Dim(1)
	global := hdc.NewModel(t.NumClasses, d)
	version := 0 // increments on every merge

	// per-client state: the version and snapshot it trained from
	baseVersion := make([]int, n)
	baseFlat := make([][]float32, n)
	bundled := make([]bool, n)
	local := hdc.NewModel(t.NumClasses, d) // scratch, reused by every event

	// Each client has exactly one pending upload: client c's lands at
	// next[c] (+Inf for a client with no data, which never uploads). Ties
	// go to the upload scheduled first, the lower seq[c].
	next := make([]float64, n)
	seq := make([]int, n)
	for c := 0; c < n; c++ {
		seq[c] = c
		if len(t.Part[c]) == 0 {
			next[c] = math.Inf(1)
			continue
		}
		baseVersion[c] = version
		baseFlat[c] = append([]float32(nil), global.Flat()...)
		next[c] = t.Delay[c]
	}

	res := &AsyncResult{}
	nextEval := t.EvalEvery
	scheduled := n
	for {
		c := 0
		for i := 1; i < n; i++ {
			if next[i] < next[c] || (next[i] == next[c] && seq[i] < seq[c]) {
				c = i
			}
		}
		at := next[c]
		if at > t.Horizon {
			break
		}
		for nextEval <= at {
			res.Trace = append(res.Trace, AsyncPoint{
				Time:     nextEval,
				Accuracy: global.Accuracy(t.TestEnc, t.TestLabels),
				Merges:   res.Merges,
			})
			nextEval += t.EvalEvery
		}

		// client c trains from its snapshot
		local.SetFlat(baseFlat[c])
		local.LocalUpdate(t.Encoded, t.Labels, t.Part[c], &bundled[c], t.LocalEpochs, 0)

		// fold its delta into the global, discounted by staleness: unlike
		// a synchronous commit, this adds to the global instead of
		// replacing it
		gFlat, lFlat, bFlat := global.Flat(), local.Flat(), baseFlat[c]
		w := float32(stalenessWeight(version-baseVersion[c], t.StalenessAlpha))
		for i := range gFlat {
			gFlat[i] += float32(w * (lFlat[i] - bFlat[i]))
		}
		version++
		res.Merges++

		// client immediately starts its next iteration from fresh state
		baseVersion[c] = version
		copy(baseFlat[c], gFlat)
		next[c] = at + t.Delay[c]
		seq[c] = scheduled
		scheduled++
	}
	for nextEval <= t.Horizon {
		res.Trace = append(res.Trace, AsyncPoint{
			Time:     nextEval,
			Accuracy: global.Accuracy(t.TestEnc, t.TestLabels),
			Merges:   res.Merges,
		})
		nextEval += t.EvalEvery
	}
	res.Model = global
	return res
}

// stalenessWeight is the discount 1/(1+staleness)^alpha of a delta that
// missed staleness merges; alpha <= 0 disables it.
func stalenessWeight(staleness int, alpha float64) float64 {
	if alpha <= 0 {
		return 1
	}
	return 1 / math.Pow(1+float64(staleness), alpha)
}

// FinalAccuracy returns the last traced accuracy (0 with an empty trace).
func (r *AsyncResult) FinalAccuracy() float64 {
	if len(r.Trace) == 0 {
		return 0
	}
	return r.Trace[len(r.Trace)-1].Accuracy
}

// TimeToAccuracy returns the first traced virtual time at which accuracy
// reached target, or -1.
func (r *AsyncResult) TimeToAccuracy(target float64) float64 {
	for _, p := range r.Trace {
		if p.Accuracy >= target {
			return p.Time
		}
	}
	return -1
}
