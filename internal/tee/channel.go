package tee

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"pelta/internal/tensor"
)

// secureChannel is the AES-GCM channel carrying payloads across the
// normal/secure world boundary. Establishing it models the key exchange a
// real TrustZone deployment performs after attestation.
type secureChannel struct {
	aead cipher.AEAD
}

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
	return &secureChannel{aead: aead}, nil
}

// seal encrypts a payload for the boundary crossing.
func (c *secureChannel) seal(plain []byte) ([]byte, error) {
	nonce := make([]byte, c.aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("generating nonce: %w", err)
	}
	return c.aead.Seal(nonce, nonce, plain, nil), nil
}

// open decrypts a payload inside the receiving world.
func (c *secureChannel) open(sealed []byte) ([]byte, error) {
	ns := c.aead.NonceSize()
	if len(sealed) < ns {
		return nil, errors.New("sealed payload too short")
	}
	return c.aead.Open(nil, sealed[:ns], sealed[ns:], nil)
}

// encodeTensor serializes shape + payload as little-endian bytes.
func encodeTensor(t *tensor.Tensor) []byte {
	shape := t.Shape()
	buf := make([]byte, 4+4*len(shape)+4*t.Len())
	binary.LittleEndian.PutUint32(buf, uint32(len(shape)))
	off := 4
	for _, d := range shape {
		binary.LittleEndian.PutUint32(buf[off:], uint32(d))
		off += 4
	}
	for _, v := range t.Data() {
		binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
		off += 4
	}
	return buf
}

// decodeTensor reverses encodeTensor.
func decodeTensor(buf []byte) (*tensor.Tensor, error) {
	if len(buf) < 4 {
		return nil, errors.New("tensor payload too short")
	}
	rank := int(binary.LittleEndian.Uint32(buf))
	off := 4
	if len(buf) < off+4*rank {
		return nil, errors.New("tensor payload truncated shape")
	}
	shape := make([]int, rank)
	n := 1
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(buf[off:]))
		if shape[i] == 0 {
			n = 0
		}
		off += 4
	}
	// The dims are sender-chosen: bound the running product by the elements
	// the remaining bytes can hold, so it can neither wrap past the length
	// check below nor go negative.
	if n != 0 {
		limit := (len(buf) - off) / 4
		for _, d := range shape {
			if n > limit/d {
				return nil, fmt.Errorf("tensor shape %v exceeds a %d-byte payload", shape, len(buf))
			}
			n *= d
		}
	}
	if len(buf) != off+4*n {
		return nil, fmt.Errorf("tensor payload length %d does not match shape %v", len(buf), shape)
	}
	data := make([]float32, n)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	return tensor.FromSlice(data, shape...), nil
}
