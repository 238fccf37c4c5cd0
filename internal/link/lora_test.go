package link

import (
	"math"
	"testing"
	"time"
)

func TestLoRaDataRatesMatchDatasheet(t *testing.T) {
	// LoRaWAN EU868 nominal rates at 125 kHz, CR 4/5 (Semtech datasheet):
	// SF7 ~5.47 kb/s, SF9 ~1.76 kb/s, SF12 ~0.25 kb/s.
	want := map[int]float64{7: 5468.75, 9: 1757.8, 12: 292.97}
	for sf, w := range want {
		got := DefaultLoRa(sf).DataRate()
		if math.Abs(got-w)/w > 0.02 {
			t.Fatalf("SF%d rate = %v, want ~%v", sf, got, w)
		}
	}
}

func TestLoRaTimeOnAirKnownValue(t *testing.T) {
	// A 51-byte payload at SF7/125kHz/CR4:5 with 8-symbol preamble and
	// explicit header is ~102.7 ms (standard airtime-calculator value).
	got := DefaultLoRa(7).TimeOnAir(51)
	if got < 95*time.Millisecond || got > 110*time.Millisecond {
		t.Fatalf("ToA(SF7, 51B) = %v, want ~102 ms", got)
	}
	// SF12 is dramatically slower (~2.8 s for the same payload).
	got12 := DefaultLoRa(12).TimeOnAir(51)
	if got12 < 2*time.Second || got12 > 3500*time.Millisecond {
		t.Fatalf("ToA(SF12, 51B) = %v, want ~2.8 s", got12)
	}
}

func TestLoRaTimeOnAirMonotonicInPayload(t *testing.T) {
	c := DefaultLoRa(9)
	prev := time.Duration(0)
	for _, pl := range []int{10, 20, 51, 100, 200} {
		got := c.TimeOnAir(pl)
		if got <= prev {
			t.Fatalf("ToA must grow with payload: %v after %v", got, prev)
		}
		prev = got
	}
}

func TestLoRaValidate(t *testing.T) {
	bad := []LoRaConfig{
		{SF: 6, BandwidthHz: 125e3, CodingRate: 5},
		{SF: 13, BandwidthHz: 125e3, CodingRate: 5},
		{SF: 9, BandwidthHz: 0, CodingRate: 5},
		{SF: 9, BandwidthHz: 125e3, CodingRate: 9},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("config %d should be invalid", i)
		}
	}
	if err := DefaultLoRa(11).Validate(); err != nil {
		t.Fatal(err)
	}
	if !DefaultLoRa(11).LowDataRateOptimize {
		t.Fatal("SF11 must enable low-data-rate optimization")
	}
}

func TestDutyCycleThroughput(t *testing.T) {
	// 51 bytes in ~102.7 ms at 1% duty cycle -> ~40 b/s effective
	c := DefaultLoRa(7)
	thr := DutyCycleThroughput(51, c.TimeOnAir(51), 0.01)
	if thr < 30 || thr > 50 {
		t.Fatalf("effective throughput = %v b/s, want ~40", thr)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad duty cycle")
		}
	}()
	DutyCycleThroughput(51, time.Second, 0)
}

// The Sec 2.1 motivation, quantified: one CNN update on a duty-cycled LoRa
// link takes over a month of airtime budget; an FHDnn update fits in a
// day. Federated learning on LPWAN is only conceivable with small updates.
func TestLPWANMakesCNNUpdatesAbsurd(t *testing.T) {
	c := DefaultLoRa(7)
	cnn := UploadTimeLoRa(c, 22_000_000, 51, 0.01) // 22 MB ResNet update
	fhd := UploadTimeLoRa(c, 400_000, 51, 0.01)    // 0.4 MB HD update
	if cnn < 30*24*time.Hour {
		t.Fatalf("CNN-on-LoRa upload = %v, expected > 1 month", cnn)
	}
	if fhd > 48*time.Hour {
		t.Fatalf("FHDnn-on-LoRa upload = %v, expected < 2 days", fhd)
	}
	if float64(cnn)/float64(fhd) < 50 {
		t.Fatal("update-size advantage must carry through the link model")
	}
}
