package tee

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"testing"

	"pelta/internal/tensor"
)

// header builds a header-only tensor payload: the rank, then each dim.
func header(dims ...uint32) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(len(dims)))
	for _, d := range dims {
		buf = binary.LittleEndian.AppendUint32(buf, d)
	}
	return buf
}

// TestDecodeTensorRejectsWrappedShape pins the overflow check: dims whose
// product wraps to 0 would pass the length check with a header-only payload
// and hand FromSlice a shape its data does not hold; a product that wraps
// negative would reach make and panic.
func TestDecodeTensorRejectsWrappedShape(t *testing.T) {
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"65536^4 wraps to zero", header(65536, 65536, 65536, 65536)},
		{"2^31·2^31·2 wraps negative", header(1<<31, 1<<31, 2)},
		{"3·2^31·2^31 wraps negative", header(3, 1<<31, 1<<31)},
		{"product beyond payload", append(header(1<<20, 1<<20), make([]byte, 16)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if x, err := decodeTensor(tc.buf, nil); err == nil {
				t.Fatalf("accepted shape %v with %d elements", x.Shape(), x.Len())
			}
		})
	}
	// A zero dim is a legal empty tensor, whatever the other dims.
	x, err := decodeTensor(header(1<<31, 0, 1<<31), nil)
	if err != nil || x.Len() != 0 {
		t.Fatalf("zero-dim header: %v, %v", x, err)
	}
}

// FuzzDecodeTensor feeds arbitrary plaintext to the one parser on the
// world boundary. decodeTensor must never panic, and any tensor it returns
// must hold exactly product(shape) elements and re-encode to the same
// bytes. Decoding into a recycled target — a spare of the decoded shape, or
// of an unrelated one — must give the same error-or-not, shape and bits as
// the fresh decode, reusing the spare exactly when the shapes agree. The
// seed corpus (testdata/fuzz/FuzzDecodeTensor) holds a valid encoding, a
// truncated one, a rank-only header, wrapped dims and zero dims.
func FuzzDecodeTensor(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		x, err := decodeTensor(buf, nil)
		spares := []*tensor.Tensor{tensor.Full(float32(math.NaN()), 2, 3)}
		if err == nil {
			spares = append(spares, tensor.Full(float32(math.NaN()), x.Shape()...))
		}
		for _, spare := range spares {
			y, rerr := decodeTensor(buf, spare)
			if (rerr == nil) != (err == nil) {
				t.Fatalf("recycled decode into %v: err %v, fresh err %v", spare.Shape(), rerr, err)
			}
			if err != nil {
				continue
			}
			if slices.Equal(spare.Shape(), x.Shape()) != (y == spare) {
				t.Fatalf("decode of %v into a %v spare: reused %v", x.Shape(), spare.Shape(), y == spare)
			}
			if !slices.Equal(y.Shape(), x.Shape()) || !bytes.Equal(appendTensor(nil, y), appendTensor(nil, x)) {
				t.Fatalf("recycled decode into %v differs from the fresh one", spare.Shape())
			}
		}
		if err != nil {
			return
		}
		// The exact product: a zero dim zeroes it, otherwise every step
		// must fit in 64 bits.
		var n uint64 = 1
		for _, d := range x.Shape() {
			if d == 0 {
				n = 0
				break
			}
		}
		for _, d := range x.Shape() {
			hi, lo := bits.Mul64(n, uint64(d))
			if hi != 0 || d < 0 {
				t.Fatalf("returned shape %v overflows", x.Shape())
			}
			n = lo
		}
		if uint64(x.Len()) != n {
			t.Fatalf("Len %d != product(%v) = %d", x.Len(), x.Shape(), n)
		}
		if !bytes.Equal(appendTensor(nil, x), buf) {
			t.Fatalf("re-encoding %v differs from input", x.Shape())
		}
	})
}
