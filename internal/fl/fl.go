// Package fl is the federated learning framework: round orchestration with
// partial client participation, FedAvg over CNN weights (the paper's
// baseline) and federated bundling over HD class prototypes (the paper's
// Eq. 1), with every client upload passed through a configurable unreliable
// uplink channel.
package fl

import (
	"fmt"

	"fhdnn/internal/channel"
	"fhdnn/internal/fedcore"
)

// Config holds the federated hyperparameters common to both trainers,
// using the paper's notation: C is the fraction of clients sampled each
// round, E the number of local epochs, B the local batch size.
type Config struct {
	NumClients     int
	ClientFraction float64 // C
	LocalEpochs    int     // E
	BatchSize      int     // B
	Rounds         int
	Seed           int64
	// Uplink corrupts each client's transmitted update; nil means perfect.
	Uplink channel.Channel
	// Parallel is the number of worker goroutines simulating clients
	// concurrently (<= 1 means sequential). Results are bit-identical
	// regardless of worker count: every client derives its randomness
	// from (Seed, round, client id) and updates are aggregated in client
	// order.
	Parallel int
}

// Validate checks the configuration and fills defaults.
func (c *Config) Validate() error {
	if c.NumClients <= 0 {
		return fmt.Errorf("fl: NumClients must be positive, got %d", c.NumClients)
	}
	if c.ClientFraction <= 0 || c.ClientFraction > 1 {
		return fmt.Errorf("fl: ClientFraction must be in (0,1], got %g", c.ClientFraction)
	}
	if c.LocalEpochs <= 0 {
		return fmt.Errorf("fl: LocalEpochs must be positive, got %d", c.LocalEpochs)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("fl: BatchSize must be positive, got %d", c.BatchSize)
	}
	if c.Rounds <= 0 {
		return fmt.Errorf("fl: Rounds must be positive, got %d", c.Rounds)
	}
	if c.Uplink == nil {
		c.Uplink = channel.Perfect{}
	}
	return nil
}

// History is the metric trace of a federated run: one fedcore.RoundStats
// per communication round (TrainLoss is 0 for HD runs).
type History struct {
	Rounds []fedcore.RoundStats
}

// Append records one round.
func (h *History) Append(st fedcore.RoundStats) { h.Rounds = append(h.Rounds, st) }

// FinalAccuracy returns the last round's test accuracy (0 if empty).
func (h *History) FinalAccuracy() float64 {
	if len(h.Rounds) == 0 {
		return 0
	}
	return h.Rounds[len(h.Rounds)-1].TestAccuracy
}

// BestAccuracy returns the maximum test accuracy across rounds.
func (h *History) BestAccuracy() float64 {
	best := 0.0
	for _, r := range h.Rounds {
		if r.TestAccuracy > best {
			best = r.TestAccuracy
		}
	}
	return best
}

// RoundsToAccuracy returns the 1-based round at which test accuracy first
// reached target, or -1 if it never did.
func (h *History) RoundsToAccuracy(target float64) int {
	for _, r := range h.Rounds {
		if r.TestAccuracy >= target {
			return r.Round
		}
	}
	return -1
}

// TotalBytes returns the cumulative uplink traffic of the run.
func (h *History) TotalBytes() int64 {
	var n int64
	for _, r := range h.Rounds {
		n += r.BytesUplinked
	}
	return n
}

// Accuracies returns the per-round accuracy series (for plotting/report
// code).
func (h *History) Accuracies() []float64 {
	out := make([]float64, len(h.Rounds))
	for i, r := range h.Rounds {
		out[i] = r.TestAccuracy
	}
	return out
}
