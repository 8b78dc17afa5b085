package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pelta/internal/tensor"
)

// fakeClock is a manually advanced Clock: timers fire only when the test
// calls Advance past them, which makes the coalescing policy deterministic.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	fc   *fakeClock
	c    chan time.Time
	at   time.Time
	done bool
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	t := &fakeTimer{fc: f, c: make(chan time.Time, 1), at: f.now.Add(d)}
	f.timers = append(f.timers, t)
	return t
}

// Advance moves the clock and fires every due timer.
func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	for _, t := range f.timers {
		if !t.done && !t.at.After(f.now) {
			t.done = true
			t.c <- f.now
		}
	}
}

// pending counts armed, unfired timers.
func (f *fakeClock) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, t := range f.timers {
		if !t.done {
			n++
		}
	}
	return n
}

// delivered reports that every fired timer's tick has been received.
func (f *fakeClock) delivered() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range f.timers {
		if len(t.c) > 0 {
			return false
		}
	}
	return true
}

func (t *fakeTimer) C() <-chan time.Time { return t.c }

func (t *fakeTimer) Stop() bool {
	t.fc.mu.Lock()
	defer t.fc.mu.Unlock()
	if t.done {
		return false
	}
	t.done = true
	return true
}

// stubReplica is a deterministic fake: logits[i][j] = (j+1)·sum(row i).
// When gate is non-nil every batch blocks until the test sends a token,
// simulating a slow replica that backs the service up.
type stubReplica struct {
	classes int
	shape   []int
	gate    chan struct{}
	serving atomic.Int32
	mu      sync.Mutex
	batches []int
	out     *tensor.Tensor
}

func newStubReplica() *stubReplica {
	return &stubReplica{classes: 3, shape: []int{1, 2, 2}}
}

func (r *stubReplica) Classes() int      { return r.classes }
func (r *stubReplica) InputShape() []int { return r.shape }

func (r *stubReplica) Logits(x *tensor.Tensor) (*tensor.Tensor, error) {
	r.serving.Add(1)
	if r.gate != nil {
		<-r.gate
	}
	b := x.Dim(0)
	r.mu.Lock()
	r.batches = append(r.batches, b)
	r.mu.Unlock()
	r.out = tensor.New(b, r.classes)
	for i := 0; i < b; i++ {
		s := float64(0)
		for _, v := range x.Slice(i).Data() {
			s += float64(v)
		}
		for j := 0; j < r.classes; j++ {
			r.out.Set(float32(s)*float32(j+1), i, j)
		}
	}
	return r.out, nil
}

func stubPool(t testing.TB, reps ...*stubReplica) *ReplicaPool {
	t.Helper()
	p, err := NewReplicaPool(len(reps), func(i int) (Replica, error) { return reps[i], nil })
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// openGatesOnce returns a func that opens the replicas' gates exactly once
// however often it is called. Every gated test defers it after its deferred
// Close, so a Fatal before the drain cannot leave that Close waiting on a
// worker parked at a gate nobody opens.
func openGatesOnce(reps ...*stubReplica) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			for _, r := range reps {
				close(r.gate)
			}
		})
	}
}

func sample(v float32) *tensor.Tensor {
	x := tensor.New(1, 2, 2)
	x.Fill(v)
	return x
}

// TestCoalesceFullBatchDeterministic pins the other half of the idle rule:
// the /query handler counts every line of a body as arriving before it
// submits any, so on a frozen clock a 4-line POST to an idle one-replica
// service rides exactly one batch of 4 instead of leaving line by line for
// the idle worker. The arriving count is back at zero at rest.
func TestCoalesceFullBatchDeterministic(t *testing.T) {
	fc := newFakeClock()
	rep := newStubReplica()
	s := NewService(stubPool(t, rep), Config{MaxBatch: 4, QueueDepth: 16, Clock: fc})
	defer s.Close()

	var body strings.Builder
	for i := 1; i <= 4; i++ {
		fmt.Fprintf(&body, "{\"x\":[%d,%d,%d,%d]}\n", i, i, i, i)
	}
	rec := httptest.NewRecorder()
	NewHandler(s).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query?logits=1", strings.NewReader(body.String())))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	dec := json.NewDecoder(rec.Body)
	for i := 0; i < 4; i++ {
		var qr QueryResponse
		if err := dec.Decode(&qr); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if qr.Error != "" {
			t.Fatalf("line %d: %s", i, qr.Error)
		}
		if qr.Batch != 4 {
			t.Fatalf("line %d rode batch of %d, want 4 (policy must coalesce a body)", i, qr.Batch)
		}
		// logits[j] = (j+1)·sum = (j+1)·4·(i+1); argmax is the last class.
		if want := float32(4 * (i + 1) * 3); len(qr.Logits) != 3 || qr.Logits[2] != want {
			t.Fatalf("line %d logits %v, want logits[2] = %v", i, qr.Logits, want)
		}
		if qr.Class != 2 {
			t.Fatalf("line %d class = %d, want 2", i, qr.Class)
		}
	}
	if got := rep.batches; len(got) != 1 || got[0] != 4 {
		t.Fatalf("replica saw batches %v, want [4]", got)
	}
	if n := s.arriving.Load(); n != 0 {
		t.Fatalf("arriving = %d at rest, want 0", n)
	}
}

// TestIdleWorkerTakesPartialBatch pins the light-load edge of the policy:
// a lone request that finds the replica idle is served at once, with the
// clock frozen and no MaxDelay timer left armed.
func TestIdleWorkerTakesPartialBatch(t *testing.T) {
	fc := newFakeClock()
	rep := newStubReplica()
	s := NewService(stubPool(t, rep), Config{MaxBatch: 4, MaxDelay: 5 * time.Millisecond, QueueDepth: 16, Clock: fc})
	defer s.Close()

	for i := 0; i < 3; i++ {
		done := make(chan struct{})
		var res *Result
		var err error
		go func() {
			defer close(done)
			res, err = s.Submit("t", sample(1), time.Time{})
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("a lone request waited for the clock although the replica was idle")
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.BatchSize != 1 {
			t.Fatalf("batch size %d, want 1", res.BatchSize)
		}
	}
	if n := fc.pending(); n != 0 {
		t.Fatalf("%d MaxDelay timers left armed for batches an idle worker took at once", n)
	}
}

// TestPartialBatchWaitsForBusyWorker pins the loaded edge: with the only
// replica busy, a partial batch keeps growing and leaves the moment the
// replica comes free, without a clock advance. MaxDelay still bounds the
// growth: once the clock passes it, the batch is closed and a later
// arrival rides the next one.
func TestPartialBatchWaitsForBusyWorker(t *testing.T) {
	fc := newFakeClock()
	rep := newStubReplica()
	rep.gate = make(chan struct{})
	s := NewService(stubPool(t, rep), Config{MaxBatch: 4, MaxDelay: 5 * time.Millisecond, QueueDepth: 16, Clock: fc})
	defer s.Close()
	open := openGatesOnce(rep)
	defer open() // a Fatal before the drain must not hang the Close

	var wg sync.WaitGroup
	sizes := make([]int, 5)
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := s.Submit("t", sample(float32(i+1)), time.Time{})
			if err != nil {
				t.Error(err)
				return
			}
			sizes[i] = res.BatchSize
		}()
	}
	// batched waits until the n-th submit sits in the batcher's open batch:
	// admission holds s.mu shared until the queue send, and only the
	// batcher empties the queue.
	batched := func(n int) {
		waitFor(t, func() bool { return routeOffered(s, "t") == uint64(n) })
		s.mu.Lock()
		s.mu.Unlock()
		waitFor(t, func() bool { return len(s.queue) == 0 })
	}

	submit(0) // A finds the replica idle and leaves alone, clock frozen
	waitFor(t, func() bool { return rep.serving.Load() == 1 })
	submit(1) // B waits on the busy replica under a MaxDelay timer...
	batched(2)
	waitFor(t, func() bool { return fc.pending() == 1 })
	submit(2) // ...and C joins it
	batched(3)
	rep.gate <- struct{}{} // A finishes: the replica takes {B, C} at once
	waitFor(t, func() bool { return rep.serving.Load() == 2 })

	submit(3) // D waits on the busy replica...
	batched(4)
	waitFor(t, func() bool { return fc.pending() == 1 })
	fc.Advance(5 * time.Millisecond) // ...until MaxDelay closes its batch
	waitFor(t, fc.delivered)
	submit(4) // E finds the batcher holding {D} for the replica
	waitFor(t, func() bool { return routeOffered(s, "t") == 5 && len(s.queue) == 1 })
	open()
	wg.Wait()

	if want := []int{1, 2, 2, 1, 1}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	if want := []int{1, 2, 1, 1}; !reflect.DeepEqual(rep.batches, want) {
		t.Fatalf("replica saw batches %v, want %v", rep.batches, want)
	}
}

// TestQueueFullShedsWithErrOverloaded backs the service up behind a blocked
// replica and checks that admission control rejects promptly with the typed
// error instead of hanging.
func TestQueueFullShedsWithErrOverloaded(t *testing.T) {
	rep := newStubReplica()
	rep.gate = make(chan struct{})
	s := NewService(stubPool(t, rep), Config{MaxBatch: 1, QueueDepth: 1})
	defer s.Close()
	open := openGatesOnce(rep)
	defer open() // a Fatal before the drain must not hang the Close

	var admitted, shed atomic.Int32
	var wg sync.WaitGroup
	var shedErr atomic.Value
	// With the replica blocked, at most 1 (in service) + 1 (batched) +
	// QueueDepth requests can ever be admitted, so launching 10 guarantees
	// sheds; stop early once one is observed.
	for i := 0; i < 10 && shed.Load() == 0; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, err := s.Submit("t", sample(1), time.Time{})
			switch {
			case err == nil:
				admitted.Add(1)
			case errors.Is(err, ErrOverloaded):
				shed.Add(1)
				shedErr.Store(err)
				if d := time.Since(start); d > 5*time.Second {
					t.Errorf("shed took %v — must reject immediately, not hang", d)
				}
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
		time.Sleep(2 * time.Millisecond)
	}
	// A shed must happen while the replica is still blocked (10 launches
	// exceed the pipeline capacity of 3); only then free the replica so
	// the admitted requests complete.
	waitFor(t, func() bool { return shed.Load() >= 1 })
	open()
	wg.Wait()

	if shed.Load() < 1 {
		t.Fatal("no request was shed although the queue bound was exceeded")
	}
	if admitted.Load() < 1 {
		t.Fatal("no request was admitted")
	}
	if err, _ := shedErr.Load().(error); err == nil || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("shed error %v is not ErrOverloaded", err)
	}
}

// TestDeadlineShedBeforeService pins deadline-aware shedding: a request
// whose deadline expires while it waits behind a slow batch is answered
// with ErrOverloaded, not served late.
func TestDeadlineShedBeforeService(t *testing.T) {
	fc := newFakeClock()
	rep := newStubReplica()
	rep.gate = make(chan struct{})
	s := NewService(stubPool(t, rep), Config{MaxBatch: 1, QueueDepth: 4, Clock: fc})
	defer s.Close()
	defer openGatesOnce(rep)() // a Fatal before the drain must not hang the Close

	aErr := make(chan error, 1)
	go func() {
		_, err := s.Submit("t", sample(1), time.Time{})
		aErr <- err
	}()
	// Wait until A occupies the replica.
	waitFor(t, func() bool { return rep.serving.Load() == 1 })

	// Capture B's deadline before the clock moves so it is expired by the
	// time a replica is free, regardless of goroutine interleaving.
	deadlineB := fc.Now().Add(10 * time.Millisecond)
	bErr := make(chan error, 1)
	go func() {
		_, err := s.Submit("t", sample(2), deadlineB)
		bErr <- err
	}()
	// B is batched behind A (MaxBatch=1 ⇒ no timer involved). Let its
	// deadline lapse, then free the replica.
	waitFor(t, func() bool { return len(s.queue) == 0 })
	fc.Advance(50 * time.Millisecond)
	rep.gate <- struct{}{}

	if err := <-aErr; err != nil {
		t.Fatalf("A: %v", err)
	}
	err := <-bErr
	if err == nil {
		t.Fatal("B was served although its deadline had passed")
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("B error %v is not ErrOverloaded", err)
	}
	snap := s.Metrics().Snapshot()
	if len(snap.Routes) != 1 || snap.Routes[0].Shed != 1 || snap.Routes[0].Served != 1 {
		t.Fatalf("metrics %+v, want served=1 shed=1", snap.Routes)
	}
}

// TestSubmitAfterClose pins the shutdown contract.
func TestSubmitAfterClose(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{})
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit("t", sample(1), time.Time{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	// ErrClosed wins over deadline shedding: a caller must see "stop",
	// not "back off and retry", on a closed service.
	past := time.Now().Add(-time.Second)
	if _, err := s.Submit("t", sample(1), past); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close with expired deadline = %v, want ErrClosed", err)
	}
}

// TestSubmitRejectsWrongShape pins input validation.
func TestSubmitRejectsWrongShape(t *testing.T) {
	s := NewService(stubPool(t, newStubReplica()), Config{})
	defer s.Close()
	if _, err := s.Submit("t", tensor.New(2, 2), time.Time{}); err == nil {
		t.Fatal("wrong-shape sample must be rejected")
	}
	// A [1,C,H,W] batch of one is accepted and squeezed.
	if _, err := s.Submit("t", tensor.New(1, 1, 2, 2), time.Time{}); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaPoolConcurrency hammers a multi-replica service from many
// goroutines; run under -race this is the scheduler's data-race probe.
func TestReplicaPoolConcurrency(t *testing.T) {
	reps := []*stubReplica{newStubReplica(), newStubReplica(), newStubReplica(), newStubReplica()}
	s := NewService(stubPool(t, reps[0], reps[1], reps[2], reps[3]),
		Config{MaxBatch: 4, MaxDelay: 200 * time.Microsecond, QueueDepth: 64})

	const clients, perClient = 16, 25
	var wg sync.WaitGroup
	var served, shed atomic.Int32
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				v := float32(c*perClient+i+1) / 100
				res, err := s.Submit(fmt.Sprintf("r%d", c%2), sample(v), time.Time{})
				if errors.Is(err, ErrOverloaded) {
					shed.Add(1)
					continue
				}
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				served.Add(1)
				want := float32(4*v) * 3
				if got := res.Logits.At(2); got != want {
					t.Errorf("client %d got logits[2]=%v, want %v (row fan-out mixed up batches?)", c, got, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	s.Close()
	if served.Load() == 0 {
		t.Fatal("nothing served")
	}
	if served.Load()+shed.Load() != clients*perClient {
		t.Fatalf("served %d + shed %d != %d sent", served.Load(), shed.Load(), clients*perClient)
	}
	snap := s.Metrics().Snapshot()
	var total uint64
	for _, r := range snap.Routes {
		total += r.Served
	}
	if total != uint64(served.Load()) {
		t.Fatalf("metrics served %d != %d observed", total, served.Load())
	}
}

// waitFor polls cond with a deadline — used to sequence fake-clock tests
// without sleeping for fixed durations.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
