package tee

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pelta/internal/tensor"
)

// DefaultMemoryLimit is the TrustZone secure-memory budget used throughout
// the paper ("up to 30 MB in some scenarios", §I).
const DefaultMemoryLimit = 30 << 20

// Errors returned by enclave operations.
var (
	ErrEnclaveFull    = errors.New("tee: enclave memory limit exceeded")
	ErrUnauthorized   = errors.New("tee: caller does not hold the owner token")
	ErrObjectNotFound = errors.New("tee: no such object in enclave")
	ErrDuplicateKey   = errors.New("tee: object already stored under this key")
)

// Token is the capability required to read objects back out of the enclave.
// It is returned exactly once, by NewEnclave, to the defender.
type Token struct {
	secret [16]byte
}

// Metrics aggregates the §VI system-implication measurements.
type Metrics struct {
	WorldSwitches int64
	BytesIn       int64
	BytesOut      int64
	// SimulatedOverhead is the modelled time cost of the switches and
	// transfers (not slept, only accounted).
	SimulatedOverhead time.Duration
	ObjectsStored     int
	BytesStored       int64
}

// Enclave is a software TrustZone-like secure world.
type Enclave struct {
	mu      sync.Mutex
	name    string
	limit   int64
	used    int64
	objects map[string]*tensor.Tensor
	token   Token
	channel *secureChannel
	// spares are flushed objects kept for Store to decode into; live plus
	// spare bytes never exceed limit.
	spares     []*tensor.Tensor
	spareBytes int64

	metrics Metrics
	// latency model: fixed cost per world switch plus per-byte transfer
	// cost. Defaults follow the microsecond-to-millisecond range the paper
	// cites for SGX/TrustZone transitions (§VI).
	switchCost  time.Duration
	perByteCost time.Duration
}

// NewEnclave creates an enclave with the given secure-memory limit in bytes
// and returns the owner token granting read access. limit <= 0 selects
// DefaultMemoryLimit.
func NewEnclave(name string, limit int64) (*Enclave, Token, error) {
	if limit <= 0 {
		limit = DefaultMemoryLimit
	}
	var tok Token
	if _, err := rand.Read(tok.secret[:]); err != nil {
		return nil, Token{}, fmt.Errorf("tee: generating owner token: %w", err)
	}
	ch, err := newSecureChannel()
	if err != nil {
		return nil, Token{}, fmt.Errorf("tee: establishing secure channel: %w", err)
	}
	e := &Enclave{
		name:        name,
		limit:       limit,
		objects:     make(map[string]*tensor.Tensor),
		token:       tok,
		channel:     ch,
		switchCost:  5 * time.Microsecond,
		perByteCost: time.Nanosecond / 4, // ~4 GB/s secure-channel bandwidth
	}
	return e, tok, nil
}

// Name returns the enclave identifier.
func (e *Enclave) Name() string { return e.name }

// Limit returns the secure-memory ceiling in bytes.
func (e *Enclave) Limit() int64 { return e.limit }

// Used returns the bytes currently stored.
func (e *Enclave) Used() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.used
}

// Free returns the remaining capacity in bytes.
func (e *Enclave) Free() int64 { return e.Limit() - e.Used() }

// accountTransfer meters one world switch moving n bytes.
func (e *Enclave) accountTransfer(n int64, in bool) {
	e.metrics.WorldSwitches++
	if in {
		e.metrics.BytesIn += n
	} else {
		e.metrics.BytesOut += n
	}
	e.metrics.SimulatedOverhead += e.switchCost + time.Duration(n)*e.perByteCost
}

// Store moves a tensor into the enclave. The payload crosses the world
// boundary through the AES-GCM secure channel (the encryption genuinely
// happens, so the §VI overhead benches measure real work). The enclave
// keeps its own copy, decoded into a spare of t's shape when it has one;
// the caller should scrub normal-world references.
func (e *Enclave) Store(key string, t *tensor.Tensor) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.objects[key]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	n := t.Bytes()
	if e.used+n > e.limit {
		return fmt.Errorf("%w: storing %q (%d B) would exceed %d B", ErrEnclaveFull, key, n, e.limit)
	}
	// Encrypt in the normal world, decrypt inside the enclave, both in
	// place in the channel's wire buffer.
	c := e.channel
	msg, err := c.seal(appendTensor(c.message(), t))
	if err != nil {
		return fmt.Errorf("tee: sealing %q: %w", key, err)
	}
	pt, err := c.open(msg)
	if err != nil {
		return fmt.Errorf("tee: opening %q inside enclave: %w", key, err)
	}
	stored, err := decodeTensor(pt, e.spare(t))
	if err != nil {
		return fmt.Errorf("tee: decoding %q inside enclave: %w", key, err)
	}
	e.accountTransfer(n, true)
	e.objects[key] = stored
	e.used += n
	e.metrics.ObjectsStored++
	e.metrics.BytesStored += n
	return nil
}

// Load reads an object back. Only the owner token holder (the defender, or
// FL aggregation code pulling hidden gradients, §VI) may call it.
func (e *Enclave) Load(tok Token, key string) (*tensor.Tensor, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if subtle.ConstantTimeCompare(tok.secret[:], e.token.secret[:]) != 1 {
		return nil, ErrUnauthorized
	}
	t, ok := e.objects[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrObjectNotFound, key)
	}
	e.accountTransfer(t.Bytes(), false)
	return t.Clone(), nil
}

// Accumulate adds src into the object stored at key, creating it when
// absent. The addition happens entirely inside the secure world — gradient
// accumulation over batches is enclave-resident computation (§VI), so no
// boundary crossing is metered; only the memory accounting moves.
func (e *Enclave) Accumulate(tok Token, key string, src *tensor.Tensor) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if subtle.ConstantTimeCompare(tok.secret[:], e.token.secret[:]) != 1 {
		return ErrUnauthorized
	}
	if dst, ok := e.objects[key]; ok {
		if dst.Len() != src.Len() {
			return fmt.Errorf("tee: Accumulate size mismatch for %q", key)
		}
		tensor.AddIn(dst, src)
		return nil
	}
	n := src.Bytes()
	if e.used+n > e.limit {
		return fmt.Errorf("%w: accumulating %q (%d B) would exceed %d B", ErrEnclaveFull, key, n, e.limit)
	}
	stored := e.spare(src)
	if stored == nil {
		stored = tensor.New(src.Shape()...)
	}
	stored.CopyFrom(src)
	e.objects[key] = stored
	e.used += n
	e.metrics.ObjectsStored++
	e.metrics.BytesStored += n
	return nil
}

// Has reports whether an object exists, without revealing its content.
func (e *Enclave) Has(key string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.objects[key]
	return ok
}

// Flush removes an object, freeing secure memory (the paper's Table I
// assumes the worst case where nothing is flushed mid-pass).
func (e *Enclave) Flush(tok Token, key string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if subtle.ConstantTimeCompare(tok.secret[:], e.token.secret[:]) != 1 {
		return ErrUnauthorized
	}
	t, ok := e.objects[key]
	if !ok {
		return fmt.Errorf("%w: %q", ErrObjectNotFound, key)
	}
	e.used -= t.Bytes()
	delete(e.objects, key)
	// t was live until now, so live plus spare bytes stay within the limit.
	e.spares = append(e.spares, t)
	e.spareBytes += t.Bytes()
	return nil
}

// FlushAll removes every object. The objects it removes become the spare
// set, replacing any spares left from before.
func (e *Enclave) FlushAll(tok Token) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if subtle.ConstantTimeCompare(tok.secret[:], e.token.secret[:]) != 1 {
		return ErrUnauthorized
	}
	e.dropSpares()
	//pelta:allow maporder spares are matched by shape and fully overwritten, so their order is never observed
	for _, t := range e.objects {
		e.spares = append(e.spares, t)
	}
	e.spareBytes, e.used = e.used, 0
	clear(e.objects)
	return nil
}

// spare removes and returns a spare shaped like t. When there is none it
// returns nil for the caller to allocate, first dropping the spares if live
// plus spare bytes would otherwise pass the limit.
func (e *Enclave) spare(t *tensor.Tensor) *tensor.Tensor {
	for i, s := range e.spares {
		if s.SameShape(t) {
			e.spares = slices.Delete(e.spares, i, i+1)
			e.spareBytes -= s.Bytes()
			return s
		}
	}
	if e.used+t.Bytes()+e.spareBytes > e.limit {
		e.dropSpares()
	}
	return nil
}

func (e *Enclave) dropSpares() {
	clear(e.spares)
	e.spares = e.spares[:0]
	e.spareBytes = 0
}

// Metrics returns a snapshot of the §VI accounting.
func (e *Enclave) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.metrics
}

// Measurement returns the SHA-256 enclave identity used by attestation.
func (e *Enclave) Measurement() [32]byte {
	return sha256.Sum256([]byte("pelta-enclave-v1:" + e.name))
}
