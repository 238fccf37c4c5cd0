// Package channel implements the unreliable uplink models of the FHDnn
// paper, Sec. 3.5: additive white Gaussian noise on uncoded transmissions
// (noisy aggregation, Eq. 2-4), binary-symmetric-channel bit errors on coded
// transmissions (Eq. 6-7), and packet erasures (Eq. 8) for UDP-style
// transports. Channels corrupt the flat vector of model parameters that a
// client uploads; the server's downlink broadcast is assumed reliable,
// matching the paper.
package channel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"fhdnn/internal/hdc"
)

// Channel corrupts one uplink transmission of a flat model update. The
// input slice is never modified; implementations return a new slice.
type Channel interface {
	Transmit(update []float32, rng *rand.Rand) []float32
	Name() string
}

// Perfect is the error-free channel.
type Perfect struct{}

// Transmit returns an unmodified copy.
func (Perfect) Transmit(update []float32, _ *rand.Rand) []float32 {
	out := make([]float32, len(update))
	copy(out, update)
	return out
}

// Name implements Channel.
func (Perfect) Name() string { return "perfect" }

// AWGN adds white Gaussian noise calibrated so that the per-transmission
// signal-to-noise ratio equals SNRdB (paper Eq. 2-3, uncoded analog
// transmission).
type AWGN struct {
	SNRdB float64
}

// Transmit measures the update's signal power and adds N(0, P/SNR) noise.
func (c AWGN) Transmit(update []float32, rng *rand.Rand) []float32 {
	out := make([]float32, len(update))
	if len(update) == 0 {
		return out
	}
	var p float64
	for _, v := range update {
		p += float64(float64(v) * float64(v))
	}
	p /= float64(len(update))
	snr := math.Pow(10, c.SNRdB/10)
	sigma := math.Sqrt(p / snr)
	for i, v := range update {
		out[i] = v + float32(rng.NormFloat64()*sigma)
	}
	return out
}

// Name implements Channel.
func (c AWGN) Name() string { return fmt.Sprintf("awgn(%gdB)", c.SNRdB) }

// PacketLoss drops whole packets of the serialized update with probability
// Rate; lost parameters arrive as zeros (the paper: "a 20% packet loss rate
// implies 20% of the weights are zero"). PacketBytes is the UDP payload
// size; parameters are 4 bytes each.
type PacketLoss struct {
	Rate        float64
	PacketBytes int
}

// DefaultPacketBytes is a typical UDP payload (Ethernet MTU minus headers).
const DefaultPacketBytes = 1024

// Transmit zeroes each packet-sized run of parameters with probability Rate.
func (c PacketLoss) Transmit(update []float32, rng *rand.Rand) []float32 {
	out := make([]float32, len(update))
	copy(out, update)
	pb := c.PacketBytes
	if pb <= 0 {
		pb = DefaultPacketBytes
	}
	perPacket := pb / 4
	if perPacket < 1 {
		perPacket = 1
	}
	for lo := 0; lo < len(out); lo += perPacket {
		if rng.Float64() < c.Rate {
			hi := lo + perPacket
			if hi > len(out) {
				hi = len(out)
			}
			for i := lo; i < hi; i++ {
				out[i] = 0
			}
		}
	}
	return out
}

// Name implements Channel.
func (c PacketLoss) Name() string { return fmt.Sprintf("packetloss(%g)", c.Rate) }

// GilbertElliott is the classical two-state Markov burst-loss model: the
// link alternates between a Good state (low loss) and a Bad state (high
// loss, e.g. deep fade or interference burst), so packet losses arrive in
// runs rather than independently. Real LPWAN losses are bursty
// [Petäjäjärvi et al.]; at equal average loss rate, bursts erase long
// contiguous stretches of a model update — a harder test of the
// holographic-dispersal property than i.i.d. erasure.
type GilbertElliott struct {
	// PGoodToBad and PBadToGood are the per-packet transition
	// probabilities; the stationary fraction of Bad packets is
	// PGoodToBad / (PGoodToBad + PBadToGood).
	PGoodToBad, PBadToGood float64
	// LossGood and LossBad are the per-packet loss probabilities within
	// each state (typically ~0 and ~1).
	LossGood, LossBad float64
	PacketBytes       int
}

// AverageLossRate returns the stationary packet loss probability.
func (c GilbertElliott) AverageLossRate() float64 {
	den := c.PGoodToBad + c.PBadToGood
	if den == 0 {
		return c.LossGood
	}
	pBad := c.PGoodToBad / den
	return float64((1-pBad)*c.LossGood) + float64(pBad*c.LossBad)
}

// Transmit drops packets according to the two-state chain, starting from
// the stationary distribution.
func (c GilbertElliott) Transmit(update []float32, rng *rand.Rand) []float32 {
	out := make([]float32, len(update))
	copy(out, update)
	pb := c.PacketBytes
	if pb <= 0 {
		pb = DefaultPacketBytes
	}
	perPacket := pb / 4
	if perPacket < 1 {
		perPacket = 1
	}
	// start in Bad with stationary probability
	bad := false
	if den := c.PGoodToBad + c.PBadToGood; den > 0 {
		bad = rng.Float64() < c.PGoodToBad/den
	}
	for lo := 0; lo < len(out); lo += perPacket {
		loss := c.LossGood
		if bad {
			loss = c.LossBad
		}
		if rng.Float64() < loss {
			hi := lo + perPacket
			if hi > len(out) {
				hi = len(out)
			}
			for i := lo; i < hi; i++ {
				out[i] = 0
			}
		}
		if bad {
			if rng.Float64() < c.PBadToGood {
				bad = false
			}
		} else if rng.Float64() < c.PGoodToBad {
			bad = true
		}
	}
	return out
}

// Name implements Channel.
func (c GilbertElliott) Name() string {
	return fmt.Sprintf("gilbert-elliott(avg %.2g)", c.AverageLossRate())
}

// BurstyLoss builds a Gilbert-Elliott channel with the given average loss
// rate and mean burst length (in packets): inside a burst every packet is
// lost, outside none are.
func BurstyLoss(avgRate float64, meanBurstPackets float64, packetBytes int) GilbertElliott {
	if avgRate <= 0 || avgRate >= 1 || meanBurstPackets < 1 {
		panic(fmt.Sprintf("channel: invalid bursty loss avg=%g burst=%g", avgRate, meanBurstPackets))
	}
	pBadToGood := 1 / meanBurstPackets
	// stationary pBad = avgRate (LossBad=1, LossGood=0)
	pGoodToBad := avgRate * pBadToGood / (1 - avgRate)
	return GilbertElliott{
		PGoodToBad: pGoodToBad, PBadToGood: pBadToGood,
		LossGood: 0, LossBad: 1, PacketBytes: packetBytes,
	}
}

// FlipBits flips each bit of data independently with probability pe
// (binary symmetric channel). For small pe it uses geometric skip sampling
// so the cost is proportional to the number of flips, not the number of
// bits.
func FlipBits(data []byte, pe float64, rng *rand.Rand) {
	nbits := len(data) * 8
	if pe <= 0 || nbits == 0 {
		return
	}
	if pe >= 1 {
		for i := range data {
			data[i] ^= 0xFF
		}
		return
	}
	if pe > 0.05 {
		for bit := 0; bit < nbits; bit++ {
			if rng.Float64() < pe {
				data[bit/8] ^= 1 << (bit % 8)
			}
		}
		return
	}
	logq := math.Log(1 - pe)
	bit := 0
	for {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		bit += int(math.Log(u)/logq) + 1
		if bit > nbits {
			return
		}
		data[(bit-1)/8] ^= 1 << ((bit - 1) % 8)
	}
}

// BitErrorFloat32 applies BSC bit flips to the IEEE-754 float32 encoding of
// the update — the CNN transmission model of Sec. 3.5.2, where a single
// exponent-bit flip can turn 0.15625 into 5.3e37.
type BitErrorFloat32 struct {
	PE float64
}

// Transmit serializes to bytes, flips bits, and deserializes. NaN and Inf
// survivors are kept as-is: the paper's point is precisely that such
// corruption reaches the aggregator.
func (c BitErrorFloat32) Transmit(update []float32, rng *rand.Rand) []float32 {
	buf := make([]byte, 4*len(update))
	for i, v := range update {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	FlipBits(buf, c.PE, rng)
	out := make([]float32, len(update))
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out
}

// Name implements Channel.
func (c BitErrorFloat32) Name() string { return fmt.Sprintf("biterror-f32(%g)", c.PE) }

// BitErrorQuantized transmits the update as scaled integers using the
// paper's quantizer (Sec. 3.5.2): each BlockLen-sized block (one class
// hypervector) is scaled up so its max magnitude fills the integer range,
// truncated, bit-flipped on the wire, and scaled back down at the receiver.
// The gain G is assumed to be conveyed reliably (it is implemented by the
// automatic gain control hardware in the paper's design, not transmitted as
// payload).
type BitErrorQuantized struct {
	PE       float64
	Bits     int // integer bitwidth, paper uses 32
	BlockLen int // hypervector dimension d; 0 treats the whole update as one block
}

// Transmit quantizes per block, applies the BSC to the integer codes, and
// dequantizes.
func (c BitErrorQuantized) Transmit(update []float32, rng *rand.Rand) []float32 {
	bits := c.Bits
	if bits == 0 {
		bits = 32
	}
	q := hdc.NewQuantizer(bits)
	block := c.BlockLen
	if block <= 0 {
		block = len(update)
	}
	out := make([]float32, len(update))
	for lo := 0; lo < len(update); lo += block {
		hi := lo + block
		if hi > len(update) {
			hi = len(update)
		}
		codes, gain := q.Quantize(update[lo:hi])
		buf := make([]byte, 4*len(codes))
		for i, v := range codes {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
		}
		FlipBits(buf, c.PE, rng)
		for i := range codes {
			codes[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		}
		copy(out[lo:hi], q.Dequantize(codes, gain))
	}
	return out
}

// Name implements Channel.
func (c BitErrorQuantized) Name() string { return fmt.Sprintf("biterror-q%d(%g)", c.Bits, c.PE) }
