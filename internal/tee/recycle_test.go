package tee

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pelta/internal/tensor"
)

var sink *tensor.Tensor

// TestEnclaveCrossingAllocs pins the crossing's steady state: once a shape
// has been stored, storing it again after a flush reuses the wire buffer
// and a spare, so a Store + FlushAll allocates nothing and a
// Store/Load/Flush loop allocates only Load's clone.
func TestEnclaveCrossingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e, tok := newTestEnclave(t, 1<<20)
	x := tensor.NewRNG(1).Normal(0, 1, 2, 17, 32)
	storeFlushAll := func() {
		if err := e.Store("z", x); err != nil {
			t.Fatal(err)
		}
		if err := e.FlushAll(tok); err != nil {
			t.Fatal(err)
		}
	}
	storeFlushAll() // the first store of a shape allocates its object
	if got := testing.AllocsPerRun(100, storeFlushAll); got != 0 {
		t.Errorf("Store + FlushAll: %.0f allocs, want 0", got)
	}

	clone := testing.AllocsPerRun(100, func() { sink = x.Clone() })
	storeLoadFlush := func() {
		if err := e.Store("z", x); err != nil {
			t.Fatal(err)
		}
		var err error
		if sink, err = e.Load(tok, "z"); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(tok, "z"); err != nil {
			t.Fatal(err)
		}
	}
	storeLoadFlush()
	if got := testing.AllocsPerRun(100, storeLoadFlush); got != clone {
		t.Errorf("Store/Load/Flush: %.0f allocs, want Load's clone only (%.0f)", got, clone)
	}
}

// TestRecycledSlotKeepsLoadedBits checks that recycling never reaches a
// tensor handed out of the enclave: a Load taken before FlushAll keeps its
// bits after its slot is reused, and a stored object is independent of the
// caller's tensor once Store returns.
func TestRecycledSlotKeepsLoadedBits(t *testing.T) {
	e, tok := newTestEnclave(t, 1<<20)
	rng := tensor.NewRNG(3)
	x, y := rng.Normal(0, 1, 3, 4), rng.Normal(0, 1, 3, 4)
	want := x.Clone()
	if err := e.Store("a", x); err != nil {
		t.Fatal(err)
	}
	slot := e.objects["a"]
	x.Data()[0]++ // the caller's tensor is not the stored object
	loaded, err := e.Load(tok, "a")
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.AllClose(want, 0) {
		t.Fatal("stored object follows the caller's tensor")
	}
	if err := e.FlushAll(tok); err != nil {
		t.Fatal(err)
	}
	if err := e.Store("b", y); err != nil {
		t.Fatal(err)
	}
	if e.objects["b"] != slot {
		t.Fatal("Store of the same shape after FlushAll did not reuse the flushed slot")
	}
	if !loaded.AllClose(want, 0) {
		t.Fatal("a loaded tensor changed when its slot was reused")
	}
	if got, err := e.Load(tok, "b"); err != nil || !got.AllClose(y, 0) {
		t.Fatalf("reused slot holds the wrong payload (err %v)", err)
	}
}

// TestRecycledSpareSurvivesFailedStore checks that a Store refused with
// ErrDuplicateKey or ErrEnclaveFull neither consumes nor writes a spare.
func TestRecycledSpareSurvivesFailedStore(t *testing.T) {
	e, tok := newTestEnclave(t, 100) // 25 floats
	if err := e.Store("s", tensor.Ones(2)); err != nil {
		t.Fatal(err)
	}
	if err := e.FlushAll(tok); err != nil {
		t.Fatal(err)
	}
	spare := e.spares[0]
	if err := e.Store("fill", tensor.Ones(20)); err != nil {
		t.Fatal(err)
	}
	if err := e.Store("fill", tensor.Full(9, 2)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("want ErrDuplicateKey, got %v", err)
	}
	if err := e.Store("big", tensor.Full(9, 10)); !errors.Is(err, ErrEnclaveFull) {
		t.Fatalf("want ErrEnclaveFull, got %v", err)
	}
	if len(e.spares) != 1 || e.spares[0] != spare || e.spareBytes != 8 || !spare.AllClose(tensor.Ones(2), 0) {
		t.Fatalf("failed stores touched the spare set: %d spares, %d B", len(e.spares), e.spareBytes)
	}
	if err := e.Store("y", tensor.Full(5, 2)); err != nil {
		t.Fatal(err)
	}
	if e.objects["y"] != spare || len(e.spares) != 0 {
		t.Fatal("the spare was not used by the next Store of its shape")
	}
}

// TestRecycledResidentBound drives random Store/Flush/FlushAll sequences
// over a few shapes and checks the spare accounting after every step: live
// plus spare bytes stay within the limit, and FlushAll leaves exactly the
// objects it released as spares.
func TestRecycledResidentBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][]int{{2}, {3, 2}, {5}, {4, 4}}
	for trial := range 20 {
		e, tok := newTestEnclave(t, int64(40+rng.Intn(100)))
		for i := range 200 {
			switch op := rng.Intn(10); {
			case op < 6:
				key := fmt.Sprint(rng.Intn(6))
				err := e.Store(key, tensor.Ones(shapes[rng.Intn(len(shapes))]...))
				if err != nil && !errors.Is(err, ErrDuplicateKey) && !errors.Is(err, ErrEnclaveFull) {
					t.Fatal(err)
				}
			case op < 9:
				_ = e.Flush(tok, fmt.Sprint(rng.Intn(6)))
			default:
				live := len(e.objects)
				if err := e.FlushAll(tok); err != nil {
					t.Fatal(err)
				}
				if len(e.spares) != live {
					t.Fatalf("trial %d step %d: FlushAll of %d objects left %d spares", trial, i, live, len(e.spares))
				}
			}
			var spare int64
			for _, s := range e.spares {
				spare += s.Bytes()
			}
			if spare != e.spareBytes || e.used+spare > e.limit {
				t.Fatalf("trial %d step %d: used %d + spare %d (counted %d) > limit %d",
					trial, i, e.used, spare, e.spareBytes, e.limit)
			}
		}
	}
}

// TestEnclaveConcurrentCrossing drives Store/Load/Flush/FlushAll on one
// enclave from several goroutines; the wire buffer and the spare set are
// shared state under the enclave's lock (run it with -race). Keys are
// unique, so a Load that finds its key returns exactly what was stored,
// while another goroutine's FlushAll may remove it first.
func TestEnclaveConcurrentCrossing(t *testing.T) {
	e, tok := newTestEnclave(t, 1<<20)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 200 {
				key := fmt.Sprintf("g%d/%d", g, i)
				x := tensor.Full(float32(1000*g+i), 1+i%3, 8)
				if err := e.Store(key, x); err != nil {
					errs <- err
					return
				}
				got, err := e.Load(tok, key)
				switch {
				case errors.Is(err, ErrObjectNotFound):
				case err != nil:
					errs <- err
					return
				case !got.AllClose(x, 0):
					errs <- fmt.Errorf("%s: loaded %v, stored %v", key, got.Data()[0], x.Data()[0])
					return
				}
				if i%17 == 0 {
					err = e.FlushAll(tok)
				} else {
					err = e.Flush(tok, key)
				}
				if err != nil && !errors.Is(err, ErrObjectNotFound) {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
