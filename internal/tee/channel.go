package tee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"pelta/internal/tensor"
)

// secureChannel is the AES-GCM channel carrying payloads across the
// normal/secure world boundary. Establishing it models the key exchange a
// real TrustZone deployment performs after attestation.
//
// A message is [nonce | payload | tag] in one reused wire buffer: the
// payload is appended behind the nonce, sealed in place and opened in
// place. The nonce is a per-channel counter (4 zero bytes, then the counter
// as a big-endian uint64), so no nonce repeats under the channel's key. A
// channel is not safe for concurrent use; the enclave drives it under e.mu.
type secureChannel struct {
	aead    cipher.AEAD
	counter uint64 // the next nonce; math.MaxUint64 means exhausted
	wire    []byte
}

var errNonceExhausted = errors.New("secure channel nonce counter exhausted")

func newSecureChannel() (*secureChannel, error) {
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, fmt.Errorf("generating channel key: %w", err)
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("creating cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("creating GCM: %w", err)
	}
	return &secureChannel{aead: aead, wire: make([]byte, aead.NonceSize())}, nil
}

// message returns the wire buffer cut back to its nonce slot; the payload
// is appended to it and the result handed to seal.
func (c *secureChannel) message() []byte { return c.wire[:c.aead.NonceSize()] }

// seal encrypts msg's payload (everything after the nonce slot) in place
// under the next counter nonce and returns the sealed message. The buffer,
// grown for the tag if need be, is kept as the wire buffer.
func (c *secureChannel) seal(msg []byte) ([]byte, error) {
	if c.counter == math.MaxUint64 {
		return nil, errNonceExhausted
	}
	ns := c.aead.NonceSize()
	c.wire = slices.Grow(msg, c.aead.Overhead())
	clear(c.wire[:ns-8])
	binary.BigEndian.PutUint64(c.wire[ns-8:ns], c.counter)
	c.counter++
	ct := c.aead.Seal(c.wire[ns:ns], c.wire[:ns], c.wire[ns:], nil)
	return c.wire[:ns+len(ct)], nil
}

// open authenticates and decrypts a sealed message in place, returning the
// payload (which aliases msg).
func (c *secureChannel) open(msg []byte) ([]byte, error) {
	ns := c.aead.NonceSize()
	if len(msg) < ns+c.aead.Overhead() {
		return nil, errors.New("sealed payload too short")
	}
	return c.aead.Open(msg[ns:ns], msg[:ns], msg[ns:], nil)
}

// appendTensor appends t's shape and payload to dst as little-endian bytes.
func appendTensor(dst []byte, t *tensor.Tensor) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.Rank()))
	for _, d := range t.Shape() {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
	}
	off := len(dst)
	dst = slices.Grow(dst, 4*t.Len())[:off+4*t.Len()]
	for i, v := range t.Data() {
		binary.LittleEndian.PutUint32(dst[off+4*i:], math.Float32bits(v))
	}
	return dst
}

// decodeTensor reverses appendTensor. When into has the payload's shape the
// elements are decoded into it and into is returned; otherwise (or when into
// is nil) a fresh tensor is allocated. The dims are compared in place, so
// the recycled path allocates nothing, and into is untouched on error.
func decodeTensor(buf []byte, into *tensor.Tensor) (*tensor.Tensor, error) {
	if len(buf) < 4 {
		return nil, errors.New("tensor payload too short")
	}
	off := 4 + 4*int(binary.LittleEndian.Uint32(buf))
	if len(buf) < off {
		return nil, errors.New("tensor payload truncated shape")
	}
	dims := buf[4:off]
	n := 1
	for i := 0; i < len(dims); i += 4 {
		if binary.LittleEndian.Uint32(dims[i:]) == 0 {
			n = 0
		}
	}
	// The dims are sender-chosen: bound the running product by the elements
	// the remaining bytes can hold, so it can neither wrap past the length
	// check below nor go negative.
	if n != 0 {
		limit := (len(buf) - off) / 4
		for i := 0; i < len(dims); i += 4 {
			d := int(binary.LittleEndian.Uint32(dims[i:]))
			if n > limit/d {
				return nil, fmt.Errorf("tensor shape %v exceeds a %d-byte payload", parseShape(dims), len(buf))
			}
			n *= d
		}
	}
	if len(buf) != off+4*n {
		return nil, fmt.Errorf("tensor payload length %d does not match shape %v", len(buf), parseShape(dims))
	}
	t := into
	if t == nil || !hasDims(t, dims) {
		t = tensor.New(parseShape(dims)...)
	}
	data := t.Data()
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4*i:]))
	}
	return t, nil
}

// hasDims reports whether t's shape is the encoded dims.
func hasDims(t *tensor.Tensor, dims []byte) bool {
	if t.Rank() != len(dims)/4 {
		return false
	}
	for i, d := range t.Shape() {
		if d != int(binary.LittleEndian.Uint32(dims[4*i:])) {
			return false
		}
	}
	return true
}

// parseShape reads the encoded dims into a fresh shape slice.
func parseShape(dims []byte) []int {
	shape := make([]int, len(dims)/4)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(dims[4*i:]))
	}
	return shape
}
