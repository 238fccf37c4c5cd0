package link

import (
	"fmt"
	"math"
	"time"

	"fhdnn/internal/invariant"
)

// LoRa/LPWAN modeling. The paper's motivation (Sec. 2.1) is that IoT
// devices sit on Low-Power Wide-Area Networks with tiny data rates, heavy
// duty-cycle limits, and high packet loss — which is why shipping 22 MB CNN
// updates is untenable and why a 20% packet loss operating point [Hu et
// al.] is attractive. This file provides the standard LoRa time-on-air and
// rate formulas so deployments can be budgeted on LPWAN, not just LTE.

// LoRaConfig describes one LoRa physical-layer configuration.
type LoRaConfig struct {
	// SF is the spreading factor, 7..12. Higher SF = longer range,
	// lower rate.
	SF int
	// BandwidthHz is the channel bandwidth (typically 125 kHz in EU868).
	BandwidthHz float64
	// CodingRate is the denominator x in 4/x forward error correction,
	// 5..8 (LoRaWAN default 5, i.e. CR 4/5).
	CodingRate int
	// PreambleSymbols is the preamble length (LoRaWAN default 8).
	PreambleSymbols int
	// ExplicitHeader enables the PHY header (LoRaWAN uplinks use it).
	ExplicitHeader bool
	// LowDataRateOptimize must be set for SF11/SF12 at 125 kHz.
	LowDataRateOptimize bool
}

// DefaultLoRa returns the LoRaWAN EU868 configuration for a spreading
// factor.
func DefaultLoRa(sf int) LoRaConfig {
	return LoRaConfig{
		SF:                  sf,
		BandwidthHz:         125e3,
		CodingRate:          5,
		PreambleSymbols:     8,
		ExplicitHeader:      true,
		LowDataRateOptimize: sf >= 11,
	}
}

// Validate checks the configuration ranges.
func (c LoRaConfig) Validate() error {
	if c.SF < 7 || c.SF > 12 {
		return fmt.Errorf("link: LoRa SF %d out of range [7,12]", c.SF)
	}
	if c.BandwidthHz <= 0 {
		return fmt.Errorf("link: LoRa bandwidth must be positive")
	}
	if c.CodingRate < 5 || c.CodingRate > 8 {
		return fmt.Errorf("link: LoRa coding rate 4/%d out of range", c.CodingRate)
	}
	return nil
}

// TimeOnAir returns the airtime of one packet with the given payload, per
// the Semtech LoRa modem designer's formula.
func (c LoRaConfig) TimeOnAir(payloadBytes int) time.Duration {
	if err := c.Validate(); err != nil {
		invariant.Failf("link: %v", err)
	}
	tSym := math.Exp2(float64(c.SF)) / c.BandwidthHz
	ih := 1.0 // implicit header flag: 0 when explicit header is on
	if c.ExplicitHeader {
		ih = 0
	}
	de := 0.0
	if c.LowDataRateOptimize {
		de = 1
	}
	pl := float64(payloadBytes)
	sf := float64(c.SF)
	num := 8*pl - 4*sf + 28 + 16 - 20*ih
	den := 4 * (sf - 2*de)
	// The per-block symbol count multiplier is (CR index + 4); with the
	// coding rate stored as the 4/x denominator, that is simply x.
	nPayload := 8 + math.Max(math.Ceil(num/den)*float64(c.CodingRate), 0)
	nTotal := float64(c.PreambleSymbols) + 4.25 + nPayload
	return time.Duration(nTotal * tSym * float64(time.Second))
}

// DataRate returns the nominal PHY bit rate: SF * BW/2^SF * 4/CR.
func (c LoRaConfig) DataRate() float64 {
	return float64(c.SF) * c.BandwidthHz / math.Exp2(float64(c.SF)) * 4 / float64(c.CodingRate)
}

// DutyCycleThroughput converts a packet airtime and payload into the
// effective long-run throughput under a regulatory duty-cycle cap (EU868:
// 1%, i.e. dutyCycle=0.01).
func DutyCycleThroughput(payloadBytes int, toa time.Duration, dutyCycle float64) float64 {
	if dutyCycle <= 0 || dutyCycle > 1 {
		invariant.Fail("link: duty cycle must be in (0,1]")
	}
	if toa <= 0 {
		invariant.Fail("link: time on air must be positive")
	}
	return float64(payloadBytes*8) / toa.Seconds() * dutyCycle
}

// UploadTimeLoRa returns how long one model update takes on a LoRa link,
// fragmenting it into packets of payloadBytes and honouring the duty
// cycle. This is the number that makes CNN federated learning on LPWAN
// absurd — and FHDnn merely slow.
func UploadTimeLoRa(c LoRaConfig, updateBytes int64, payloadBytes int, dutyCycle float64) time.Duration {
	throughput := DutyCycleThroughput(payloadBytes, c.TimeOnAir(payloadBytes), dutyCycle)
	sec := float64(updateBytes*8) / throughput
	return time.Duration(sec * float64(time.Second))
}
