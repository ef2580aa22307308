// Package wire is the strict decoder shared by the repository's durable
// binary payloads: the trace, the RpStacks analysis and the checkpoint
// chunk. Their encoders append with encoding/binary (AppendUvarint,
// AppendVarint, LittleEndian.AppendUint64); a Decoder reads those bytes
// back and accepts nothing else. Varints must be minimal, booleans are one
// 0 or 1 byte, counts are bounded by a cap and by the bytes left, and a
// payload must be consumed exactly. Together with each format's own
// structural checks this makes every accepted payload canonical: it
// re-encodes to the same bytes, so a payload's hash names its content.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Decoder reads one payload off a byte slice, which it does not retain
// past the values it returns. The first failure sticks: later reads return
// zero values and Err reports that failure.
type Decoder struct {
	buf []byte
	err error
}

// NewDecoder returns a Decoder over raw.
func NewDecoder(raw []byte) *Decoder { return &Decoder{buf: raw} }

var (
	errOverflow   = errors.New("varint overflows a 64-bit integer")
	errNonMinimal = errors.New("varint is not minimally encoded")
)

// Uvarint reads an unsigned varint as binary.AppendUvarint writes it. A
// multi-byte varint whose last byte is zero is rejected: it has a shorter
// encoding. The loop is binary.Uvarint's with that check on the last byte,
// which is cheaper there than after the call.
func (d *Decoder) Uvarint() uint64 {
	var v uint64
	for i, b := range d.buf {
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			if b == 0 && i > 0 {
				d.fail(errNonMinimal)
				return 0
			}
			d.buf = d.buf[i+1:]
			return v | uint64(b)<<(7*i)
		}
		if i == binary.MaxVarintLen64-1 {
			break
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	if len(d.buf) < binary.MaxVarintLen64 {
		d.fail(io.ErrUnexpectedEOF)
	} else {
		d.fail(errOverflow)
	}
	return 0
}

// Varint reads a zigzag varint as binary.AppendVarint writes it.
func (d *Decoder) Varint() int64 {
	ux := d.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Float64 reads a little-endian IEEE 754 double.
func (d *Decoder) Float64() float64 {
	b := d.Bytes(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	b := d.Bytes(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.fail(fmt.Errorf("invalid boolean byte %d", b[0]))
		return false
	}
	return b[0] == 1
}

// Bytes returns the next n bytes, aliasing the payload, or nil when fewer
// remain.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.buf) < n {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Magic consumes the payload's leading magic string, failing unless the
// bytes match it.
func (d *Decoder) Magic(magic string) {
	if b := d.Bytes(len(magic)); b != nil && string(b) != magic {
		d.fail(fmt.Errorf("bad magic %q", b))
	}
}

// Count reads an element count. It fails when the count exceeds max, or
// when the elements that follow, each at least minSize bytes, could not fit
// in what is left of the payload, so a caller may allocate the count.
func (d *Decoder) Count(max uint64, minSize int) int {
	n := d.Uvarint()
	if n > max || n > uint64(len(d.buf)/minSize) {
		d.fail(fmt.Errorf("count %d exceeds limit or payload", n))
		return 0
	}
	return int(n)
}

// fail records err as the decode failure unless one is already recorded,
// and stops further reads.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

// Err returns the first failure, or nil.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first failure, or an error when bytes remain after
// the payload.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return d.err
}

// ReadAll reads r to its end. A reader that knows its length, such as a
// bytes.Reader, is read with one allocation of that length.
func ReadAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
