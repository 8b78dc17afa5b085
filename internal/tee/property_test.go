package tee

import (
	"testing"
	"testing/quick"

	"pelta/internal/tensor"
)

// Property: any tensor survives the encode→seal→open→decode boundary
// crossing bit-exactly, in place in one reused wire buffer.
func TestSecureChannelRoundTripProperty(t *testing.T) {
	ch, err := newSecureChannel()
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, dRaw, hRaw uint8) bool {
		d := int(dRaw%5) + 1
		h := int(hRaw%7) + 1
		x := tensor.NewRNG(seed).Normal(0, 3, d, h)
		sealed, err := ch.seal(appendTensor(ch.message(), x))
		if err != nil {
			return false
		}
		plain, err := ch.open(sealed)
		if err != nil {
			return false
		}
		back, err := decodeTensor(plain, nil)
		if err != nil {
			return false
		}
		return back.AllClose(x, 0) && back.Dim(0) == d && back.Dim(1) == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: enclave usage accounting is exact under arbitrary
// store/flush interleavings.
func TestEnclaveUsageAccountingProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 12 {
			return true
		}
		e, tok, err := NewEnclave("prop", 1<<20)
		if err != nil {
			return false
		}
		var want int64
		for i, s := range sizes {
			n := int(s%32) + 1
			if err := e.Store(key(i), tensor.Ones(n)); err != nil {
				return false
			}
			want += int64(n) * 4
		}
		if e.Used() != want {
			return false
		}
		// Flush every other object.
		for i, s := range sizes {
			if i%2 == 0 {
				if err := e.Flush(tok, key(i)); err != nil {
					return false
				}
				want -= int64(int(s%32)+1) * 4
			}
		}
		return e.Used() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func key(i int) string { return string(rune('a' + i)) }
