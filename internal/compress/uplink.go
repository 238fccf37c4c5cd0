package compress

import (
	"math/rand"

	"fhdnn/internal/invariant"
)

// Uplink adapts a Codec to the federated uplink interface (it satisfies
// channel.Channel): the transmitted update is what survives a lossy
// compression round trip, and WireCodec exposes the codec so traffic
// accounting charges the actual compressed size.
type Uplink struct {
	C Codec
}

// Transmit compresses and decompresses the update; the information lost in
// between is the "corruption" of this channel.
func (u Uplink) Transmit(update []float32, _ *rand.Rand) []float32 {
	out, _, err := RoundTrip(u.C, update)
	if err != nil {
		// Encode/Decode of our own payload cannot fail except by
		// programming error.
		invariant.Failf("compress: uplink round trip: %v", err)
	}
	return out
}

// Name implements channel.Channel.
func (u Uplink) Name() string { return "compress:" + u.C.Name() }

// WireCodec exposes the underlying codec so traffic accounting (see
// fedcore.UpdateWireBytes) can charge the envelope-framed compressed size
// — the same bytes an flnet deployment would actually put on the wire —
// instead of a raw-float estimate.
func (u Uplink) WireCodec() Codec { return u.C }
