package hdc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"fhdnn/internal/tensor"
)

// Binary serialization for HD models and encoders, so federated servers
// can checkpoint global state and clients can persist their shared encoder.
// The model format is little-endian: a 4-byte magic, two int32
// dimensions, then the float32 payload. The encoder format is documented
// at encoderVersion.

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

// The encoder format, FHDE v2, little-endian:
//
//	"FHDE"  magic
//	uint32  encoderVersion: the high bit marks a versioned header, since a
//	        dense v1 file held its positive int32 d here
//	int32   d, n, s
//	byte    flags: bit 0 is Binarize
//	uint16  d*s feature indices, row by row, each row strictly ascending
//	bytes   ceil(d*s/8) sign bits in the same order, least significant
//	        bit first: 1 is -1/sqrt(s), 0 is +1/sqrt(s); unused bits are 0
//
// s must be the non-zero count NewEncoder draws for n, so a file carries
// no density that the code would not pick itself.
const encoderVersion = 1<<31 | 2

// EncoderFormat is the version of the encoder format WriteTo writes and
// ReadEncoder reads.
const EncoderFormat = encoderVersion &^ (1 << 31)

// Typed encoder-format failures, matchable with errors.Is.
var (
	// ErrEncoderVersion marks an encoder file of another format version,
	// such as the dense v1 layout (d x n float32 rows), which is no
	// longer read.
	ErrEncoderVersion = errors.New("hdc: unsupported encoder format version")
	// ErrEncoderLayout marks a v2 file whose shape or entries no encoder
	// could have: implausible dims, a non-zero count other than the one
	// NewEncoder draws, an index >= n, or a row that is not strictly
	// ascending.
	ErrEncoderLayout = errors.New("hdc: malformed encoder")
)

// WriteTo serializes the encoder in FHDE v2. It implements io.WriterTo.
func (e *Encoder) WriteTo(w io.Writer) (int64, error) {
	var hdr [21]byte
	copy(hdr[:], encoderMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], encoderVersion)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(e.D))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(e.N))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(e.S))
	if e.Binarize {
		hdr[20] = 1
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("hdc: write encoder header: %w", err)
	}
	entries := e.D * e.S
	buf := make([]byte, 2*entries+(entries+7)/8)
	signs := buf[2*entries:]
	for i := 0; i < e.D; i++ {
		for k := 0; k < e.S; k++ {
			j, neg := e.entry(i, k)
			at := i*e.S + k
			binary.LittleEndian.PutUint16(buf[2*at:], uint16(j))
			if neg {
				signs[at/8] |= 1 << (at % 8)
			}
		}
	}
	nn, err := w.Write(buf)
	if err != nil {
		return 21 + int64(nn), fmt.Errorf("hdc: write payload: %w", err)
	}
	return 21 + int64(nn), nil
}

// ReadEncoder deserializes an encoder written by WriteTo. It refuses
// another format version with ErrEncoderVersion and a malformed v2 file
// with ErrEncoderLayout.
func ReadEncoder(r io.Reader) (*Encoder, error) {
	var hdr [12]byte
	version, d, err := readHeader(r, &hdr, encoderMagic, "encoder", nil)
	if err != nil {
		return nil, err
	}
	if uint32(version) != encoderVersion {
		if version > 0 {
			return nil, fmt.Errorf("%w: dense v1 layout (d=%d)", ErrEncoderVersion, version)
		}
		return nil, fmt.Errorf("%w: %#x", ErrEncoderVersion, uint32(version))
	}
	var rest [9]byte
	if _, err := io.ReadFull(r, rest[:]); err != nil {
		return nil, fmt.Errorf("hdc: read encoder header: %w", err)
	}
	n := int(int32(binary.LittleEndian.Uint32(rest[0:])))
	s := int(int32(binary.LittleEndian.Uint32(rest[4:])))
	// int64 products: on 32-bit platforms d*s can wrap.
	if d <= 0 || n <= 0 || n > maxFeatures || int64(d)*int64(n) > maxModelElems {
		return nil, fmt.Errorf("%w: dims %dx%d", ErrEncoderLayout, d, n)
	}
	if s != nonZeros(n) {
		return nil, fmt.Errorf("%w: %d non-zeros per row, want %d for n=%d", ErrEncoderLayout, s, nonZeros(n), n)
	}
	entries := d * s
	buf := make([]byte, 2*entries+(entries+7)/8)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("hdc: read payload: %w", err)
	}
	signs := buf[2*entries:]
	if rest[8] > 1 || entries%8 != 0 && signs[len(signs)-1]>>(entries%8) != 0 {
		return nil, fmt.Errorf("%w: flags %#x or unused sign bits set", ErrEncoderLayout, rest[8])
	}
	e := newPlan(d, n, s)
	e.Binarize = rest[8] == 1
	for i := 0; i < d; i++ {
		prev := -1
		for k := 0; k < s; k++ {
			at := i*s + k
			j := int(binary.LittleEndian.Uint16(buf[2*at:]))
			if j >= n || j <= prev {
				return nil, fmt.Errorf("%w: row %d entry %d index %d (previous %d, n=%d)", ErrEncoderLayout, i, k, j, prev, n)
			}
			prev = j
			e.setEntry(i, k, j, signs[at/8]>>(at%8)&1 == 1)
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
