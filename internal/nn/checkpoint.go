package nn

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Checkpointing for network parameters: a little-endian stream of the
// parameter count, then per parameter its length and float32 payload.
// BatchNorm running statistics are included automatically because they are
// exposed through Params().

var checkpointMagic = [4]byte{'F', 'H', 'D', 'N'}

// SaveParams writes all parameter tensors to w.
func SaveParams(w io.Writer, params []*Param) error {
	if _, err := w.Write(checkpointMagic[:]); err != nil {
		return fmt.Errorf("nn: write checkpoint header: %w", err)
	}
	var count [4]byte
	binary.LittleEndian.PutUint32(count[:], uint32(len(params)))
	if _, err := w.Write(count[:]); err != nil {
		return fmt.Errorf("nn: write checkpoint count: %w", err)
	}
	for i, p := range params {
		var lenBuf [4]byte
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(p.W.Len()))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return fmt.Errorf("nn: write param %d length: %w", i, err)
		}
		buf := make([]byte, 4*p.W.Len())
		for j, v := range p.W.Data() {
			binary.LittleEndian.PutUint32(buf[4*j:], math.Float32bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("nn: write param %d payload: %w", i, err)
		}
	}
	return nil
}

// LoadParams reads a checkpoint written by SaveParams into params. The
// parameter list must describe the identical architecture: count and
// per-parameter lengths are validated. Every payload is read before any
// parameter is written, so a failed load leaves params unchanged.
func LoadParams(r io.Reader, params []*Param) error {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("nn: read checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: bad checkpoint magic %q", magic[:])
	}
	var count [4]byte
	if _, err := io.ReadFull(r, count[:]); err != nil {
		return fmt.Errorf("nn: read checkpoint count: %w", err)
	}
	if got := int(binary.LittleEndian.Uint32(count[:])); got != len(params) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", got, len(params))
	}
	payloads := make([][]byte, len(params))
	for i, p := range params {
		var lenBuf [4]byte
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return fmt.Errorf("nn: read param %d length: %w", i, err)
		}
		if got := int(binary.LittleEndian.Uint32(lenBuf[:])); got != p.W.Len() {
			return fmt.Errorf("nn: param %d (%s) has %d values in checkpoint, want %d",
				i, p.Name, got, p.W.Len())
		}
		payloads[i] = make([]byte, 4*p.W.Len())
		if _, err := io.ReadFull(r, payloads[i]); err != nil {
			return fmt.Errorf("nn: read param %d payload: %w", i, err)
		}
	}
	for i, p := range params {
		for j := range p.W.Data() {
			p.W.Data()[j] = math.Float32frombits(binary.LittleEndian.Uint32(payloads[i][4*j:]))
		}
	}
	return nil
}
