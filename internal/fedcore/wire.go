package fedcore

import (
	"fhdnn/internal/channel"
	"fhdnn/internal/compress"
)

// wireCodec is implemented by uplinks that ship a compress.Codec
// (compress.Uplink); such updates are accounted at envelope-framed size.
type wireCodec interface {
	WireCodec() compress.Codec
}

// WireBytes is THE sizing rule for one n-parameter update shipped through
// codec c: envelope header plus compressed payload. The flnet protocol
// puts exactly these bytes on the wire, and the simulator charges exactly
// this size for a compressed uplink, so the two accountings cannot drift.
// EncodeEnvelope sizes its frame with it.
func WireBytes(c compress.Codec, n int) int {
	return EnvelopeOverhead + c.EncodedLen(n)
}

// UpdateWireBytes returns the accounted uplink traffic of one n-value
// update over the given channel. The rule has two cases: a codec uplink
// is charged its envelope-framed compressed size (WireBytes), and every
// other channel n*bytesPerParam raw values.
func UpdateWireBytes(uplink channel.Channel, n, bytesPerParam int) int64 {
	if cw, ok := uplink.(wireCodec); ok {
		return int64(WireBytes(cw.WireCodec(), n))
	}
	return int64(n * bytesPerParam)
}
