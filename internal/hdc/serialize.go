package hdc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"fhdnn/internal/tensor"
)

// Binary serialization for HD models and encoders, so federated servers
// can checkpoint global state and clients can persist their shared encoder.
// The format is little-endian: a 4-byte magic, two int32 dimensions, then
// the float32 payload.

var (
	modelMagic   = [4]byte{'F', 'H', 'D', 'M'}
	encoderMagic = [4]byte{'F', 'H', 'D', 'E'}
)

// Typed deserialization failures, matchable with errors.Is: they separate
// a malformed checkpoint or download from local I/O trouble.
var (
	ErrModelMagic = errors.New("hdc: bad model magic")
	ErrModelDims  = errors.New("hdc: implausible model dims")
)

// maxModelElems caps the pre-allocation: a genuine model of >64M entries
// (256 MB) is outside this library's envelope, and a malformed header must
// not trigger a giant allocation before the payload read fails.
const maxModelElems = 1 << 26

// WriteTo serializes the model. It implements io.WriterTo.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	if _, err := w.Write(modelMagic[:]); err != nil {
		return 0, fmt.Errorf("hdc: write model header: %w", err)
	}
	n := int64(4)
	if err := writeDims(w, m.K, m.D); err != nil {
		return n, err
	}
	n += 8
	nn, err := writeFloats(w, m.Prototypes.Data())
	return n + nn, err
}

// ReadModel deserializes a model written by WriteTo. It reads from a
// stream and therefore cannot object to bytes following the payload. The
// header arrives in one read, and on little-endian hosts the payload
// lands straight in the model's storage: a fetch holds one copy of the
// model, not two.
func ReadModel(r io.Reader) (*Model, error) {
	// A buffer handed to r.Read escapes to the heap, so the header
	// shares one allocation with the Model it describes.
	hm := new(struct {
		hdr [12]byte
		m   Model
	})
	k, d, err := readHeader(r, &hm.hdr, modelMagic, "model", ErrModelMagic)
	if err != nil {
		return nil, err
	}
	// The product check is in int64: on a 32-bit platform k=d=2^16 wraps
	// k*d to zero and would sail past an int multiply.
	if k <= 0 || d <= 0 || int64(k)*int64(d) > maxModelElems {
		return nil, fmt.Errorf("%w: %dx%d", ErrModelDims, k, d)
	}
	hm.m = Model{K: k, D: d, Prototypes: tensor.New(k, d)}
	if err := tensor.ReadFloat32s(r, hm.m.Prototypes.Data()); err != nil {
		return nil, fmt.Errorf("hdc: read payload: %w", err)
	}
	return &hm.m, nil
}

// WriteTo serializes the encoder (projection matrix and flags). It
// implements io.WriterTo. The wire payload is Phi (d x n) row-major,
// gathered from the stored transpose into one buffer and one Write.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	if _, err := w.Write(encoderMagic[:]); err != nil {
		return 0, fmt.Errorf("hdc: write encoder header: %w", err)
	}
	n := int64(4)
	if err := writeDims(w, e.D, e.N); err != nil {
		return n, err
	}
	n += 8
	flag := byte(0)
	if e.Binarize {
		flag = 1
	}
	if _, err := w.Write([]byte{flag}); err != nil {
		return n, fmt.Errorf("hdc: write encoder flags: %w", err)
	}
	n++
	buf := make([]byte, 4*e.D*e.N)
	pt := e.phiT.Data()
	for j := 0; j < e.N; j++ {
		for i, v := range pt[j*e.D : (j+1)*e.D] {
			binary.LittleEndian.PutUint32(buf[4*(i*e.N+j):], math.Float32bits(v))
		}
	}
	nn, err := w.Write(buf)
	if err != nil {
		return n + int64(nn), fmt.Errorf("hdc: write payload: %w", err)
	}
	return n + int64(nn), nil
}

// ReadEncoder deserializes an encoder written by WriteTo.
func ReadEncoder(r io.Reader) (*Encoder, error) {
	var hdr [12]byte
	d, n, err := readHeader(r, &hdr, encoderMagic, "encoder", nil)
	if err != nil {
		return nil, err
	}
	// int64 product: on 32-bit platforms d=n=2^16 wraps d*n to zero.
	if d <= 0 || n <= 0 || int64(d)*int64(n) > maxModelElems {
		return nil, fmt.Errorf("hdc: implausible encoder dims %dx%d", d, n)
	}
	var flag [1]byte
	if _, err := io.ReadFull(r, flag[:]); err != nil {
		return nil, fmt.Errorf("hdc: read encoder flags: %w", err)
	}
	// Phi arrives row-major; scatter one row at a time into the stored
	// transpose so a load never holds two copies of the projection.
	e := &Encoder{D: d, N: n, phiT: tensor.New(n, d), Binarize: flag[0] == 1}
	pt := e.phiT.Data()
	buf := make([]byte, 4*n)
	for i := 0; i < d; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("hdc: read payload: %w", err)
		}
		for j := 0; j < n; j++ {
			pt[j*d+i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
	}
	return e, nil
}

// readHeader consumes a 4-byte magic and two int32 dimensions in one
// read into buf. A magic mismatch wraps sentinel when one is supplied, so
// callers can expose a typed error; it is reported whenever the magic
// arrived, even if the dims were cut short.
func readHeader(r io.Reader, buf *[12]byte, want [4]byte, kind string, sentinel error) (int, int, error) {
	n, err := io.ReadFull(r, buf[:])
	if n < 4 {
		return 0, 0, fmt.Errorf("hdc: read %s header: %w", kind, err)
	}
	if [4]byte(buf[:4]) != want {
		if sentinel != nil {
			return 0, 0, fmt.Errorf("%w: %q", sentinel, buf[:4])
		}
		return 0, 0, fmt.Errorf("hdc: bad %s magic %q", kind, buf[:4])
	}
	if err != nil {
		if n == 4 {
			err = io.EOF // the stream ended cleanly after the magic
		}
		return 0, 0, fmt.Errorf("hdc: read dims: %w", err)
	}
	return int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		int(int32(binary.LittleEndian.Uint32(buf[8:]))), nil
}

func writeDims(w io.Writer, a, b int) error {
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(a))
	binary.LittleEndian.PutUint32(buf[4:], uint32(b))
	if _, err := w.Write(buf[:]); err != nil {
		return fmt.Errorf("hdc: write dims: %w", err)
	}
	return nil
}

func writeFloats(w io.Writer, data []float32) (int64, error) {
	buf := make([]byte, 4*len(data))
	tensor.PutFloat32s(buf, data)
	n, err := w.Write(buf)
	if err != nil {
		return int64(n), fmt.Errorf("hdc: write payload: %w", err)
	}
	return int64(n), nil
}
