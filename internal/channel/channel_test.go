package channel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomUpdate(rng *rand.Rand, n int) []float32 {
	u := make([]float32, n)
	for i := range u {
		u[i] = float32(rng.NormFloat64() * 3)
	}
	return u
}

func TestPerfectIsIdentityAndCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	u := randomUpdate(rng, 100)
	out := Perfect{}.Transmit(u, rng)
	for i := range u {
		if out[i] != u[i] {
			t.Fatal("perfect channel must not corrupt")
		}
	}
	out[0] = 999
	if u[0] == 999 {
		t.Fatal("Transmit must not alias the input")
	}
}

func TestAWGNAchievesTargetSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	u := randomUpdate(rng, 200000)
	for _, snrDB := range []float64{5, 15, 25} {
		out := AWGN{SNRdB: snrDB}.Transmit(u, rng)
		var sig, noise float64
		for i := range u {
			sig += float64(float64(u[i]) * float64(u[i]))
			d := float64(out[i] - u[i])
			noise += float64(d * d)
		}
		got := float64(10 * math.Log10(sig/noise))
		if math.Abs(got-snrDB) > 0.3 {
			t.Fatalf("measured SNR %.2f dB, want %v dB", got, snrDB)
		}
	}
}

func TestAWGNEmptyUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	out := AWGN{SNRdB: 10}.Transmit(nil, rng)
	if len(out) != 0 {
		t.Fatal("empty update must stay empty")
	}
}

func TestPacketLossZeroesWholePackets(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := make([]float32, 1000)
	for i := range u {
		u[i] = 1
	}
	c := PacketLoss{Rate: 0.5, PacketBytes: 40} // 10 floats per packet
	out := c.Transmit(u, rng)
	// every 10-float block is either intact or all-zero
	for lo := 0; lo < len(out); lo += 10 {
		zeros, ones := 0, 0
		for i := lo; i < lo+10; i++ {
			if out[i] == 0 {
				zeros++
			} else if out[i] == 1 {
				ones++
			}
		}
		if zeros != 10 && ones != 10 {
			t.Fatalf("packet at %d partially corrupted: %d zeros", lo, zeros)
		}
	}
}

func TestPacketLossRateStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := make([]float32, 100000)
	for i := range u {
		u[i] = 1
	}
	out := PacketLoss{Rate: 0.2, PacketBytes: 400}.Transmit(u, rng)
	lost := 0
	for _, v := range out {
		if v == 0 {
			lost++
		}
	}
	frac := float64(lost) / float64(len(u))
	if math.Abs(frac-0.2) > 0.03 {
		t.Fatalf("loss fraction %.3f, want ~0.2", frac)
	}
}

func TestPacketLossRateZeroAndOne(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	u := []float32{1, 2, 3, 4}
	out := PacketLoss{Rate: 0}.Transmit(u, rng)
	for i := range u {
		if out[i] != u[i] {
			t.Fatal("rate 0 must be lossless")
		}
	}
	out = PacketLoss{Rate: 1}.Transmit(u, rng)
	for _, v := range out {
		if v != 0 {
			t.Fatal("rate 1 must zero everything")
		}
	}
}

func TestFlipBitsStatistics(t *testing.T) {
	for _, pe := range []float64{0.01, 0.2} {
		rng := rand.New(rand.NewSource(7))
		data := make([]byte, 50000)
		FlipBits(data, pe, rng)
		flips := 0
		for _, b := range data {
			for i := 0; i < 8; i++ {
				if b&(1<<i) != 0 {
					flips++
				}
			}
		}
		frac := float64(flips) / float64(len(data)*8)
		if math.Abs(frac-pe) > float64(pe*0.15)+0.001 {
			t.Fatalf("pe=%v: flip fraction %.4f", pe, frac)
		}
	}
}

func TestFlipBitsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := []byte{0xAB}
	FlipBits(data, 0, rng)
	if data[0] != 0xAB {
		t.Fatal("pe=0 must not flip")
	}
	FlipBits(data, 1, rng)
	if data[0] != 0x54 {
		t.Fatalf("pe=1 must invert all bits, got %x", data[0])
	}
	FlipBits(nil, 0.5, rng)
}

func TestBitErrorFloat32CorruptsSeverely(t *testing.T) {
	// The paper's argument: even small BER can blow up float32 weights via
	// exponent-bit flips.
	rng := rand.New(rand.NewSource(9))
	u := make([]float32, 100000)
	for i := range u {
		u[i] = 0.15625
	}
	out := BitErrorFloat32{PE: 1e-4}.Transmit(u, rng)
	maxAbs := 0.0
	changed := 0
	for i := range out {
		if out[i] != u[i] {
			changed++
		}
		a := math.Abs(float64(out[i]))
		if !math.IsNaN(a) && !math.IsInf(a, 0) && a > maxAbs {
			maxAbs = a
		}
	}
	if changed == 0 {
		t.Fatal("expected some corrupted values")
	}
	if maxAbs < 1e3 {
		t.Fatalf("expected exponent blow-up, max |value| = %v", maxAbs)
	}
}

func TestBitErrorFloat32ZeroPEIsLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	u := randomUpdate(rng, 64)
	out := BitErrorFloat32{PE: 0}.Transmit(u, rng)
	for i := range u {
		if out[i] != u[i] {
			t.Fatal("pe=0 must be lossless")
		}
	}
}

// Property: the quantized channel bounds relative damage. After scale-up,
// a bit flip changes an integer code by at most 2^31, which after scale-down
// is at most ~2x the block's max magnitude — unlike float32 exponent flips
// which can amplify by 1e38. An all-zero block (a class a non-IID client
// never saw) is bounded too: its codes come back at most ~1 in magnitude,
// not at face value.
func TestBitErrorQuantizedBoundsDamage(t *testing.T) {
	const block = 64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := randomUpdate(rng, 4*block)
		clear(u[block : 2*block]) // the second block is all zero
		maxAbs := 0.0
		for _, v := range u {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		out := BitErrorQuantized{PE: 1e-3, Bits: 32, BlockLen: block}.Transmit(u, rng)
		for i, v := range out {
			a := math.Abs(float64(v))
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return false
			}
			// worst case: sign-bit flip of a max-magnitude code plus the
			// original value -> bounded by ~4x block max (conservative).
			if a > float64(4*maxAbs)+1 {
				return false
			}
			if i >= block && i < 2*block && a > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBitErrorQuantizedLosslessWithoutErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	u := randomUpdate(rng, 100)
	out := BitErrorQuantized{PE: 0, Bits: 32, BlockLen: 50}.Transmit(u, rng)
	for i := range u {
		if math.Abs(float64(out[i]-u[i])) > 1e-4 {
			t.Fatalf("quantization round-trip error too large at %d: %v vs %v", i, out[i], u[i])
		}
	}
}

func TestBitErrorQuantizedDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	u := randomUpdate(rng, 10)
	// Bits=0 -> 32, BlockLen=0 -> whole update
	out := BitErrorQuantized{PE: 0}.Transmit(u, rng)
	for i := range u {
		if math.Abs(float64(out[i]-u[i])) > 1e-4 {
			t.Fatal("defaults should round-trip")
		}
	}
}

func TestGilbertElliottStationaryRate(t *testing.T) {
	c := BurstyLoss(0.2, 5, 40) // 20% average loss in ~5-packet bursts
	if got := c.AverageLossRate(); math.Abs(got-0.2) > 1e-9 {
		t.Fatalf("average loss %v, want 0.2", got)
	}
	rng := rand.New(rand.NewSource(17))
	u := make([]float32, 400000)
	for i := range u {
		u[i] = 1
	}
	out := c.Transmit(u, rng)
	lost := 0
	for _, v := range out {
		if v == 0 {
			lost++
		}
	}
	frac := float64(lost) / float64(len(u))
	if math.Abs(frac-0.2) > 0.04 {
		t.Fatalf("measured loss %v, want ~0.2", frac)
	}
}

func TestGilbertElliottIsBursty(t *testing.T) {
	// at equal average rate, burst losses must form longer runs than iid
	runLen := func(ch Channel) float64 {
		rng := rand.New(rand.NewSource(18))
		u := make([]float32, 200000)
		for i := range u {
			u[i] = 1
		}
		out := ch.Transmit(u, rng)
		runs, lost := 0, 0
		inRun := false
		for _, v := range out {
			if v == 0 {
				lost++
				if !inRun {
					runs++
					inRun = true
				}
			} else {
				inRun = false
			}
		}
		if runs == 0 {
			return 0
		}
		return float64(lost) / float64(runs)
	}
	bursty := runLen(BurstyLoss(0.2, 8, 40))
	iid := runLen(PacketLoss{Rate: 0.2, PacketBytes: 40})
	if bursty < 2*iid {
		t.Fatalf("burst mean run %v should far exceed iid %v", bursty, iid)
	}
}

func TestGilbertElliottDegenerate(t *testing.T) {
	// zero transition probabilities: behaves like iid at LossGood
	c := GilbertElliott{LossGood: 0.5, LossBad: 1, PacketBytes: 40}
	if got := c.AverageLossRate(); got != 0.5 {
		t.Fatalf("degenerate average = %v", got)
	}
}

func TestBurstyLossValidation(t *testing.T) {
	for _, f := range []func(){
		func() { BurstyLoss(0, 5, 40) },
		func() { BurstyLoss(1, 5, 40) },
		func() { BurstyLoss(0.2, 0.5, 40) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestChannelNames(t *testing.T) {
	for _, c := range []Channel{Perfect{}, AWGN{SNRdB: 10}, PacketLoss{Rate: 0.2},
		BitErrorFloat32{PE: 1e-4}, BitErrorQuantized{PE: 1e-4, Bits: 32}} {
		if c.Name() == "" {
			t.Fatal("channel must have a name")
		}
	}
}

// Property: AWGN noise is unbiased — the mean of many corrupted copies
// converges to the original.
func TestAWGNUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	u := []float32{1, -2, 3}
	sum := make([]float64, 3)
	const reps = 20000
	for r := 0; r < reps; r++ {
		out := AWGN{SNRdB: 10}.Transmit(u, rng)
		for i, v := range out {
			sum[i] += float64(v)
		}
	}
	for i := range sum {
		if math.Abs(sum[i]/reps-float64(u[i])) > 0.05 {
			t.Fatalf("biased noise at %d: mean %v, want %v", i, sum[i]/reps, u[i])
		}
	}
}
