package tee

import (
	"errors"
	"math"
	"testing"

	"pelta/internal/tensor"
)

func newTestEnclave(t *testing.T, limit int64) (*Enclave, Token) {
	t.Helper()
	e, tok, err := NewEnclave("test", limit)
	if err != nil {
		t.Fatalf("NewEnclave: %v", err)
	}
	return e, tok
}

func TestStoreLoadRoundTrip(t *testing.T) {
	e, tok := newTestEnclave(t, 1<<20)
	x := tensor.NewRNG(1).Normal(0, 1, 3, 4, 5)
	if err := e.Store("act", x); err != nil {
		t.Fatalf("Store: %v", err)
	}
	got, err := e.Load(tok, "act")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !got.AllClose(x, 0) {
		t.Fatal("payload corrupted crossing the world boundary")
	}
	if got.Dim(2) != 5 {
		t.Fatalf("shape lost: %v", got.Shape())
	}
}

func TestLoadRequiresOwnerToken(t *testing.T) {
	e, _ := newTestEnclave(t, 1<<20)
	if err := e.Store("secret", tensor.Ones(4)); err != nil {
		t.Fatal(err)
	}
	var forged Token
	if _, err := e.Load(forged, "secret"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("forged token should be rejected, got %v", err)
	}
}

func TestMemoryLimitEnforced(t *testing.T) {
	e, tok := newTestEnclave(t, 100) // 100 bytes = 25 floats
	if err := e.Store("a", tensor.Ones(20)); err != nil {
		t.Fatalf("first store should fit: %v", err)
	}
	if err := e.Store("b", tensor.Ones(10)); !errors.Is(err, ErrEnclaveFull) {
		t.Fatalf("want ErrEnclaveFull, got %v", err)
	}
	if e.Used() != 80 {
		t.Fatalf("used = %d, want 80", e.Used())
	}
	// Flushing frees space.
	if err := e.Flush(tok, "a"); err != nil {
		t.Fatal(err)
	}
	if err := e.Store("b", tensor.Ones(10)); err != nil {
		t.Fatalf("store after flush: %v", err)
	}
}

func TestDefaultLimitIs30MB(t *testing.T) {
	e, _ := newTestEnclave(t, 0)
	if e.Limit() != 30<<20 {
		t.Fatalf("default limit = %d, want 30 MiB (TrustZone budget)", e.Limit())
	}
}

func TestDuplicateKeyRejected(t *testing.T) {
	e, _ := newTestEnclave(t, 1<<20)
	if err := e.Store("k", tensor.Ones(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Store("k", tensor.Ones(2)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
}

func TestLoadMissingObject(t *testing.T) {
	e, tok := newTestEnclave(t, 1<<20)
	if _, err := e.Load(tok, "nope"); !errors.Is(err, ErrObjectNotFound) {
		t.Fatalf("want ErrObjectNotFound, got %v", err)
	}
}

func TestFlushAll(t *testing.T) {
	e, tok := newTestEnclave(t, 1<<20)
	_ = e.Store("a", tensor.Ones(5))
	_ = e.Store("b", tensor.Ones(5))
	if err := e.FlushAll(tok); err != nil {
		t.Fatal(err)
	}
	if e.Used() != 0 || e.Has("a") {
		t.Fatal("FlushAll should empty the enclave")
	}
}

func TestMetricsAccounting(t *testing.T) {
	e, tok := newTestEnclave(t, 1<<20)
	x := tensor.Ones(100) // 400 bytes
	_ = e.Store("x", x)
	_, _ = e.Load(tok, "x")
	m := e.Metrics()
	if m.WorldSwitches != 2 {
		t.Fatalf("switches = %d, want 2", m.WorldSwitches)
	}
	if m.BytesIn != 400 || m.BytesOut != 400 {
		t.Fatalf("bytes in/out = %d/%d, want 400/400", m.BytesIn, m.BytesOut)
	}
	if m.SimulatedOverhead <= 0 {
		t.Fatal("overhead model should accumulate time")
	}
	if m.ObjectsStored != 1 || m.BytesStored != 400 {
		t.Fatalf("stored = %d objects / %d bytes", m.ObjectsStored, m.BytesStored)
	}
}

func TestIsolationBetweenEnclaves(t *testing.T) {
	e1, tok1 := newTestEnclave(t, 1<<20)
	e2, _ := newTestEnclave(t, 1<<20)
	_ = e1.Store("x", tensor.Ones(2))
	_ = e2.Store("x", tensor.Ones(2))
	// e2's content is not readable with e1's token.
	if _, err := e2.Load(tok1, "x"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("cross-enclave read should fail, got %v", err)
	}
}

func TestSecureChannelTamperDetected(t *testing.T) {
	ch, err := newSecureChannel()
	if err != nil {
		t.Fatal(err)
	}
	ns := ch.aead.NonceSize()
	payload := []byte("gradient payload")
	for _, tc := range []struct {
		name string
		at   func(ct []byte) int
	}{
		{"ciphertext byte", func([]byte) int { return ns }},
		{"nonce byte", func([]byte) int { return ns - 1 }},
		{"tag byte", func(ct []byte) int { return len(ct) - 1 }},
	} {
		ct, err := ch.seal(append(ch.message(), payload...))
		if err != nil {
			t.Fatal(err)
		}
		ct[tc.at(ct)] ^= 0xFF
		if _, err := ch.open(ct); err == nil {
			t.Fatalf("tampered %s must not decrypt", tc.name)
		}
	}
}

// TestSecureChannelCounterNonces pins the nonce scheme: every seal on a
// channel uses a fresh nonce, and a channel whose counter is exhausted
// refuses to seal instead of wrapping.
func TestSecureChannelCounterNonces(t *testing.T) {
	ch, err := newSecureChannel()
	if err != nil {
		t.Fatal(err)
	}
	ns := ch.aead.NonceSize()
	seen := make(map[string]bool)
	for range 10000 {
		ct, err := ch.seal(append(ch.message(), 7))
		if err != nil {
			t.Fatal(err)
		}
		seen[string(ct[:ns])] = true
	}
	if len(seen) != 10000 {
		t.Fatalf("10000 seals used %d distinct nonces", len(seen))
	}
	ch.counter = math.MaxUint64
	if _, err := ch.seal(append(ch.message(), 7)); !errors.Is(err, errNonceExhausted) {
		t.Fatalf("seal with an exhausted counter: got %v", err)
	}
}

// TestEnclaveStoreNonceExhausted checks that a Store refused by an exhausted
// channel leaves the enclave as it was.
func TestEnclaveStoreNonceExhausted(t *testing.T) {
	e, _ := newTestEnclave(t, 1<<20)
	if err := e.Store("a", tensor.Ones(4)); err != nil {
		t.Fatal(err)
	}
	used, m := e.Used(), e.Metrics()
	e.channel.counter = math.MaxUint64
	if err := e.Store("b", tensor.Ones(4)); !errors.Is(err, errNonceExhausted) {
		t.Fatalf("Store with an exhausted channel: got %v", err)
	}
	if e.Used() != used || e.Metrics() != m || e.Has("b") || !e.Has("a") {
		t.Fatalf("failed Store changed the enclave: used %d→%d, metrics %+v→%+v", used, e.Used(), m, e.Metrics())
	}
}

func TestTensorCodecRoundTrip(t *testing.T) {
	x := tensor.NewRNG(2).Normal(0, 3, 2, 3, 4)
	got, err := decodeTensor(appendTensor(nil, x), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.AllClose(x, 0) || got.Rank() != 3 {
		t.Fatal("codec round trip failed")
	}
}

func TestTensorCodecRejectsGarbage(t *testing.T) {
	if _, err := decodeTensor([]byte{1, 2}, nil); err == nil {
		t.Fatal("short payload must fail")
	}
	if _, err := decodeTensor(make([]byte, 64), nil); err == nil {
		// rank 0 with 60 trailing bytes is inconsistent
		t.Fatal("inconsistent payload must fail")
	}
}

func TestAttestationFlow(t *testing.T) {
	e, _ := newTestEnclave(t, 1<<20)
	att, ver, err := NewAttestationPair(e)
	if err != nil {
		t.Fatal(err)
	}
	nonce, err := NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	report := att.Attest(nonce)
	if err := ver.Verify(report, nonce); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	// Replay with a different nonce fails.
	other, _ := NewNonce()
	if err := ver.Verify(report, other); !errors.Is(err, ErrAttestationFailed) {
		t.Fatalf("replayed report should fail, got %v", err)
	}
	// Forged measurement fails.
	report.Measurement[0] ^= 1
	if err := ver.Verify(report, nonce); !errors.Is(err, ErrAttestationFailed) {
		t.Fatalf("forged measurement should fail, got %v", err)
	}
}

func TestAttestationWrongEnclave(t *testing.T) {
	e1, _ := newTestEnclave(t, 1<<20)
	e2, tok2, err := NewEnclave("other", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	_ = tok2
	att2, _, err := NewAttestationPair(e2)
	if err != nil {
		t.Fatal(err)
	}
	_, ver1, err := NewAttestationPair(e1)
	if err != nil {
		t.Fatal(err)
	}
	nonce, _ := NewNonce()
	// e2's report (different key AND measurement) must not verify against
	// e1's verifier.
	if err := ver1.Verify(att2.Attest(nonce), nonce); err == nil {
		t.Fatal("cross-enclave attestation should fail")
	}
}
