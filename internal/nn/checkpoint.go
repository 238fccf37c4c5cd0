package nn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"fhdnn/internal/tensor"
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
		tensor.PutFloat32s(buf, p.W.Data())
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
	count, err := readHeader(r)
	if err != nil {
		return err
	}
	if count != int64(len(params)) {
		return fmt.Errorf("nn: checkpoint has %d params, model has %d", count, len(params))
	}
	payloads := make([][]byte, len(params))
	for i, p := range params {
		n, err := readLength(r, i)
		if err != nil {
			return err
		}
		if n != int64(p.W.Len()) {
			return fmt.Errorf("nn: param %d (%s) has %d values in checkpoint, want %d",
				i, p.Name, n, p.W.Len())
		}
		payloads[i] = make([]byte, 4*p.W.Len())
		if _, err := io.ReadFull(r, payloads[i]); err != nil {
			return fmt.Errorf("nn: read param %d payload: %w", i, err)
		}
	}
	for i, p := range params {
		tensor.GetFloat32s(p.W.Data(), payloads[i])
	}
	return nil
}

// ScanParams reads past a checkpoint written by SaveParams and returns
// its parameter count and its total number of values. It checks what
// LoadParams checks short of an architecture to compare against: the
// magic, and that every payload holds as many bytes as its length
// claims. Payloads are discarded as they are read, so a lying length
// costs no allocation, only the bytes r really holds.
func ScanParams(r io.Reader) (tensors, values int, err error) {
	count, err := readHeader(r)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; int64(i) < count; i++ {
		n, err := readLength(r, i)
		if err != nil {
			return 0, 0, err
		}
		if got, err := io.CopyN(io.Discard, r, 4*n); err != nil {
			if errors.Is(err, io.EOF) {
				return 0, 0, fmt.Errorf("nn: param %d payload truncated: %d of %d bytes", i, got, 4*n)
			}
			return 0, 0, fmt.Errorf("nn: read param %d payload: %w", i, err)
		}
		values += int(n)
	}
	return int(count), values, nil
}

// readHeader reads a checkpoint's magic and parameter count. Counts and
// lengths are uint32 on the wire and int64 here, so none wraps negative
// on a 32-bit platform.
func readHeader(r io.Reader) (count int64, err error) {
	var word [4]byte
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return 0, fmt.Errorf("nn: read checkpoint header: %w", err)
	}
	if word != checkpointMagic {
		return 0, fmt.Errorf("nn: bad checkpoint magic %q", word[:])
	}
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return 0, fmt.Errorf("nn: read checkpoint count: %w", err)
	}
	return int64(binary.LittleEndian.Uint32(word[:])), nil
}

// readLength reads parameter i's value count.
func readLength(r io.Reader, i int) (int64, error) {
	var word [4]byte
	if _, err := io.ReadFull(r, word[:]); err != nil {
		return 0, fmt.Errorf("nn: read param %d length: %w", i, err)
	}
	return int64(binary.LittleEndian.Uint32(word[:])), nil
}
