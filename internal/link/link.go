// Package link models the wireless uplink budget of Sec. 4.4 of the FHDnn
// paper: federated learning over LTE frames, where each client occupies one
// 5 MHz / 10 ms frame in time-division duplexing. A conventional FL system
// must communicate error-free and is therefore rate-limited by coding
// overhead; FHDnn admits errors and communicates faster. The package
// converts (rounds, update size, client count, rate) into wall-clock
// training time, and provides Shannon-capacity helpers for sanity checks.
package link

import (
	"fmt"
	"math"
	"time"

	"fhdnn/internal/invariant"
)

// LTEConfig captures the paper's link assumptions.
type LTEConfig struct {
	BandwidthHz float64 // per-client LTE frame bandwidth (paper: 5 MHz)
	FrameSec    float64 // frame duration (paper: 10 ms, TDD)
	SNRdB       float64 // wireless channel SNR (paper: 5 dB)
	// ErrorFreeRate is the data rate sustainable with reliable, coded
	// transmission (paper: 1.6 Mbit/s for the CNN system).
	ErrorFreeRate float64
	// ErrorAdmittingRate is the rate when residual errors are tolerated
	// (paper: 5.0 Mbit/s for FHDnn).
	ErrorAdmittingRate float64
}

// PaperLTE returns the constants quoted in Sec. 4.4.
func PaperLTE() LTEConfig {
	return LTEConfig{
		BandwidthHz:        5e6,
		FrameSec:           10e-3,
		SNRdB:              5,
		ErrorFreeRate:      1.6e6,
		ErrorAdmittingRate: 5.0e6,
	}
}

// ShannonCapacity returns the channel capacity in bits/s for the given
// bandwidth and SNR: C = B log2(1 + SNR).
func ShannonCapacity(bandwidthHz, snrDB float64) float64 {
	snr := math.Pow(10, snrDB/10)
	return bandwidthHz * math.Log2(1+snr)
}

// Validate checks that the configured rates do not exceed capacity.
func (c LTEConfig) Validate() error {
	cap := ShannonCapacity(c.BandwidthHz, c.SNRdB)
	if c.ErrorFreeRate > cap {
		return fmt.Errorf("link: error-free rate %.3g b/s exceeds Shannon capacity %.3g b/s", c.ErrorFreeRate, cap)
	}
	// The error-admitting rate may exceed capacity: it trades residual
	// errors for speed, which is exactly the paper's operating point.
	if c.ErrorFreeRate <= 0 || c.ErrorAdmittingRate <= 0 {
		return fmt.Errorf("link: rates must be positive")
	}
	return nil
}

// UploadTime returns how long one client's update of the given size takes
// at rate bits/s.
func UploadTime(updateBytes int64, rateBitsPerSec float64) time.Duration {
	if rateBitsPerSec <= 0 {
		invariant.Fail("link: rate must be positive")
	}
	sec := float64(updateBytes*8) / rateBitsPerSec
	return time.Duration(sec * float64(time.Second))
}

// RoundTime returns the wall-clock duration of one communication round in
// which clientsPerRound clients each upload updateBytes, sharing the medium
// in TDD (uploads are serialized, as in the paper's accounting).
func RoundTime(updateBytes int64, clientsPerRound int, rateBitsPerSec float64) time.Duration {
	return time.Duration(clientsPerRound) * UploadTime(updateBytes, rateBitsPerSec)
}

// TrainingTime returns the wall-clock time for a full federated run of
// `rounds` communication rounds.
func TrainingTime(rounds int, updateBytes int64, clientsPerRound int, rateBitsPerSec float64) time.Duration {
	return time.Duration(rounds) * RoundTime(updateBytes, clientsPerRound, rateBitsPerSec)
}

// DataTransmitted returns the total bytes one client uploads over a run
// (the paper's data_transmitted = n_rounds x update_size).
func DataTransmitted(rounds int, updateBytes int64) int64 {
	return int64(rounds) * updateBytes
}
